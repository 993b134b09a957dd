// Minimal POSIX stream-socket layer for the service: endpoint
// parsing, a move-only connected socket with deadline-bounded I/O, and a
// listener. Unix-domain sockets cover the single-host case (and the test
// suite); TCP covers cross-host fan-out. No third-party dependencies —
// plain sockets, poll(2) for deadlines, MSG_NOSIGNAL so a dead peer is an
// error return, never SIGPIPE.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "twinsvc/frame.hpp"
#include "util/result.hpp"

namespace amjs::twinsvc {

struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp; 0 = ephemeral (resolved after bind)

  /// "unix:/run/twin.sock" or "tcp:127.0.0.1:7077".
  [[nodiscard]] static Result<Endpoint> parse(std::string_view text);
  [[nodiscard]] static Endpoint unix_path(std::string path);
  [[nodiscard]] static Endpoint tcp(std::string host, int port);

  [[nodiscard]] std::string to_string() const;
};

/// Connected stream socket (client side of dial, or an accepted peer).
/// Deadlines: every I/O call takes `timeout_ms`; a non-positive budget
/// means the deadline already lapsed, so the call fails immediately. A
/// lapsed deadline surfaces as an Error mentioning "timed out".
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  [[nodiscard]] Status send_all(std::string_view data, int timeout_ms);
  /// Exactly `n` bytes; EOF before that is an error.
  [[nodiscard]] Result<std::string> recv_exact(std::size_t n, int timeout_ms);
  /// Like recv_exact, but a clean EOF *before any byte* yields nullopt —
  /// how a server notices the client simply hung up between requests.
  [[nodiscard]] Result<std::optional<std::string>> recv_exact_or_eof(
      std::size_t n, int timeout_ms);

  void close();

 private:
  int fd_ = -1;
};

/// Connect within `timeout_ms` (non-blocking connect + poll, so even a
/// TCP host that drops SYNs fails by the deadline, not the kernel's
/// retry cycle). The returned socket is non-blocking; its I/O methods
/// poll for readiness, so callers never see EAGAIN.
[[nodiscard]] Result<Socket> dial(const Endpoint& endpoint, int timeout_ms);

class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen. For unix endpoints a stale socket file is unlinked
  /// first; for tcp port 0 the resolved port is in endpoint().
  [[nodiscard]] static Result<Listener> bind(const Endpoint& endpoint,
                                             int backlog = 16);

  /// Wait up to `timeout_ms` for a connection; nullopt = timeout (so an
  /// accept loop can poll a stop flag without racing close()).
  [[nodiscard]] Result<std::optional<Socket>> accept(int timeout_ms);

  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

// --- Listener setup shared by every server binary. ---------------------

struct ListenOptions {
  int backlog = 16;
  /// When non-empty, the resolved endpoint (ephemeral tcp ports included)
  /// is written here once the listener is bound — the "accepting now"
  /// handshake scripts and CI wait on.
  std::string ready_file;
};

/// Parse `listen_text` ("unix:/path" or "tcp:host:port"), bind + listen,
/// and announce the resolved endpoint through `options.ready_file`.
[[nodiscard]] Result<Listener> bind_listener(std::string_view listen_text,
                                             const ListenOptions& options = {});
[[nodiscard]] Result<Listener> bind_listener(const Endpoint& endpoint,
                                             const ListenOptions& options = {});

// --- Frame I/O over a socket. ------------------------------------------

[[nodiscard]] Status send_frame(Socket& socket, std::string_view frame_bytes,
                                int timeout_ms);

/// Read one complete frame (header, then payload + CRC) and verify it.
[[nodiscard]] Result<Frame> recv_frame(Socket& socket, int timeout_ms);

/// recv_frame, except a clean EOF before the first header byte yields
/// nullopt (end of the request stream rather than a protocol error).
[[nodiscard]] Result<std::optional<Frame>> recv_frame_or_eof(Socket& socket,
                                                             int timeout_ms);

}  // namespace amjs::twinsvc
