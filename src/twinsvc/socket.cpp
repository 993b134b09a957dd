#include "twinsvc/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/fmt.hpp"
#include "util/strings.hpp"

namespace amjs::twinsvc {
namespace {

Error errno_error(std::string_view what) {
  return Error{format("{}: {}", what, std::strerror(errno))};
}

/// Wait for `events` on `fd`. Returns false on deadline expiry. A
/// non-positive budget is a deadline that already lapsed (the caller
/// computed a remaining budget that ran out between checks) — it must
/// expire immediately, never block.
Result<bool> wait_for(int fd, short events, int timeout_ms) {
  if (timeout_ms <= 0) return false;
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return errno_error("poll");
  }
}

Result<struct sockaddr_un> unix_address(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Error{format("unix socket path longer than {} bytes", sizeof(addr.sun_path) - 1),
                 path};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

Result<struct sockaddr_in> tcp_address(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Error{"not an IPv4 address (twinsvc tcp endpoints take literal addresses)",
                 host};
  }
  return addr;
}

}  // namespace

Result<Endpoint> Endpoint::parse(std::string_view text) {
  if (text.rfind("unix:", 0) == 0) {
    const std::string path(text.substr(5));
    if (path.empty()) return Error{"empty unix socket path", std::string(text)};
    return Endpoint::unix_path(path);
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string_view rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 == rest.size()) {
      return Error{"expected tcp:host:port", std::string(text)};
    }
    const auto port = parse_i64(rest.substr(colon + 1));
    if (!port || *port < 0 || *port > 65535) {
      return Error{"bad tcp port", std::string(text)};
    }
    return Endpoint::tcp(std::string(rest.substr(0, colon)), static_cast<int>(*port));
  }
  return Error{"endpoint must start with unix: or tcp:", std::string(text)};
}

Endpoint Endpoint::unix_path(std::string path) {
  Endpoint e;
  e.kind = Kind::kUnix;
  e.path = std::move(path);
  return e;
}

Endpoint Endpoint::tcp(std::string host, int port) {
  Endpoint e;
  e.kind = Kind::kTcp;
  e.host = std::move(host);
  e.port = port;
  return e;
}

std::string Endpoint::to_string() const {
  return kind == Kind::kUnix ? format("unix:{}", path)
                             : format("tcp:{}:{}", host, port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::send_all(std::string_view data, int timeout_ms) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    auto ready = wait_for(fd_, POLLOUT, timeout_ms);
    if (!ready) return ready.error();
    if (!ready.value()) return Error{"send timed out"};
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return errno_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::success();
}

Result<std::optional<std::string>> Socket::recv_exact_or_eof(std::size_t n,
                                                             int timeout_ms) {
  std::string buffer;
  buffer.resize(n);
  std::size_t received = 0;
  while (received < n) {
    auto ready = wait_for(fd_, POLLIN, timeout_ms);
    if (!ready) return ready.error();
    if (!ready.value()) return Error{"recv timed out"};
    const ssize_t got =
        ::recv(fd_, buffer.data() + received, n - received, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return errno_error("recv");
    }
    if (got == 0) {
      if (received == 0) return std::optional<std::string>{};
      return Error{format("connection closed mid-message ({} of {} bytes)",
                          received, n)};
    }
    received += static_cast<std::size_t>(got);
  }
  return std::optional<std::string>{std::move(buffer)};
}

Result<std::string> Socket::recv_exact(std::size_t n, int timeout_ms) {
  auto got = recv_exact_or_eof(n, timeout_ms);
  if (!got) return got.error();
  if (!got.value().has_value()) {
    return Error{format("connection closed, expected {} bytes", n)};
  }
  return std::move(*got.value());
}

Result<Socket> dial(const Endpoint& endpoint, int timeout_ms) {
  const int family = endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  // Non-blocking from birth: a TCP connect to an unreachable host must
  // respect `timeout_ms`, not the kernel's minutes-long SYN retry cycle.
  // The socket stays non-blocking for its lifetime — every I/O path polls
  // for readiness and retries EAGAIN, so blocking mode is never needed.
  const int fd = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return errno_error("socket");
  Socket socket(fd);

  int rc = 0;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    auto addr = unix_address(endpoint.path);
    if (!addr) return addr.error();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
                   sizeof(addr.value()));
  } else {
    auto addr = tcp_address(endpoint.host, endpoint.port);
    if (!addr) return addr.error();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
                   sizeof(addr.value()));
  }
  if (rc != 0 && errno == EINPROGRESS) {
    auto ready = wait_for(fd, POLLOUT, timeout_ms);
    if (!ready) return ready.error();
    if (!ready.value()) {
      return Error{format("connect to {} timed out after {} ms",
                          endpoint.to_string(), timeout_ms)};
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return errno_error("getsockopt(SO_ERROR)");
    }
    errno = err;
    rc = err == 0 ? 0 : -1;
  }
  if (rc != 0) {
    return Error{format("connect to {}: {}", endpoint.to_string(),
                        std::strerror(errno))};
  }
  return socket;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), endpoint_(std::move(other.endpoint_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    other.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      std::remove(endpoint_.path.c_str());
    }
  }
}

Result<Listener> Listener::bind(const Endpoint& endpoint, int backlog) {
  const int family = endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  Listener listener;
  listener.fd_ = fd;
  listener.endpoint_ = endpoint;

  if (endpoint.kind == Endpoint::Kind::kUnix) {
    std::remove(endpoint.path.c_str());  // stale socket from a dead server
    auto addr = unix_address(endpoint.path);
    if (!addr) return addr.error();
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
               sizeof(addr.value())) != 0) {
      return Error{format("bind {}: {}", endpoint.to_string(), std::strerror(errno))};
    }
  } else {
    const int reuse = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    auto addr = tcp_address(endpoint.host, endpoint.port);
    if (!addr) return addr.error();
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
               sizeof(addr.value())) != 0) {
      return Error{format("bind {}: {}", endpoint.to_string(), std::strerror(errno))};
    }
    if (endpoint.port == 0) {  // report the kernel-picked ephemeral port
      struct sockaddr_in bound;
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0) {
        listener.endpoint_.port = ntohs(bound.sin_port);
      }
    }
  }
  if (::listen(fd, backlog) != 0) return errno_error("listen");
  return listener;
}

Result<std::optional<Socket>> Listener::accept(int timeout_ms) {
  auto ready = wait_for(fd_, POLLIN, timeout_ms);
  if (!ready) return ready.error();
  if (!ready.value()) return std::optional<Socket>{};
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    // ECONNABORTED/EPROTO: the peer connected and hung up before we got
    // here. That is the peer's failure, not the listener's — surfacing it
    // as an error would let one rude client kill the accept loop.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED || errno == EPROTO) {
      return std::optional<Socket>{};
    }
    return errno_error("accept");
  }
  return std::optional<Socket>{Socket(fd)};
}

Status send_frame(Socket& socket, std::string_view frame_bytes, int timeout_ms) {
  return socket.send_all(frame_bytes, timeout_ms);
}

Result<std::optional<Frame>> recv_frame_or_eof(Socket& socket, int timeout_ms) {
  auto header_bytes = socket.recv_exact_or_eof(kFrameHeaderSize, timeout_ms);
  if (!header_bytes) return header_bytes.error();
  if (!header_bytes.value().has_value()) return std::optional<Frame>{};
  auto header = decode_frame_header(*header_bytes.value());
  if (!header) return header.error();
  auto body = socket.recv_exact(
      static_cast<std::size_t>(header.value().payload_size) + 4, timeout_ms);
  if (!body) return body.error();
  auto payload = decode_frame_body(header.value(), body.value());
  if (!payload) return payload.error();
  Frame frame;
  frame.type = header.value().type;
  frame.payload = std::move(payload).value();
  return std::optional<Frame>{std::move(frame)};
}

Result<Frame> recv_frame(Socket& socket, int timeout_ms) {
  auto frame = recv_frame_or_eof(socket, timeout_ms);
  if (!frame) return frame.error();
  if (!frame.value().has_value()) {
    return Error{"connection closed before a frame"};
  }
  return std::move(*frame.value());
}

Result<Listener> bind_listener(const Endpoint& endpoint,
                               const ListenOptions& options) {
  auto listener = Listener::bind(endpoint, options.backlog);
  if (!listener) return listener.error();
  if (!options.ready_file.empty()) {
    std::ofstream out(options.ready_file);
    out << listener.value().endpoint().to_string() << "\n";
    if (!out) {
      return Error{format("cannot write ready file {}", options.ready_file)};
    }
  }
  return listener;
}

Result<Listener> bind_listener(std::string_view listen_text,
                               const ListenOptions& options) {
  auto endpoint = Endpoint::parse(listen_text);
  if (!endpoint) return endpoint.error();
  return bind_listener(endpoint.value(), options);
}

}  // namespace amjs::twinsvc
