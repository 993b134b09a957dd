// Request envelope and server hardening: round-trips are lossless,
// every corruption of a request frame — truncation at any prefix, any
// flipped byte, a CRC single-bit flip, a stale protocol version, an
// oversized declared length, a crafted machine spec, an eval snapshot
// that does not fit its trace or machine — is rejected with
// kError while the server stays up, and the svc.rejected.* counters pin
// the exact rejection path taken. Mirrors tests/twinsvc/frame_test.cpp
// one layer up.
#include "svc/frame.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/frame.hpp"
#include "obs/registry.hpp"
#include "support/test_server.hpp"
#include "svc/client.hpp"
#include "svc/facade.hpp"
#include "svc/server.hpp"
#include "twinsvc/socket.hpp"

namespace amjs::svc {
namespace {

SvcRequest sample_request() {
  SvcRequest request;
  request.request_id = 42;
  request.context = {7, 42, obs::dispatch_span_id(42, 1), 1};
  request.plugin = static_cast<std::uint32_t>(Plugin::kSubmitJob);
  request.deadline_ms = 0;
  Job job;
  job.id = 7;
  job.submit = 100;
  job.runtime = 1800;
  job.walltime = 1800;
  job.nodes = 10;
  request.body = encode_submit_job(job);
  return request;
}

TEST(SvcFrame, RequestReplyBusyRoundTripLossless) {
  const SvcRequest request = sample_request();
  auto frame = twinsvc::decode_frame(encode_svc_request(request));
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame.value().type, twinsvc::FrameType::kSvcRequest);
  auto decoded = decode_svc_request(frame.value().payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().request_id, 42u);
  EXPECT_EQ(decoded.value().context, request.context);
  EXPECT_EQ(decoded.value().plugin,
            static_cast<std::uint32_t>(Plugin::kSubmitJob));
  EXPECT_EQ(decoded.value().deadline_ms, 0);
  EXPECT_EQ(decoded.value().body, request.body);
  auto job = decode_submit_job(decoded.value().body);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value().id, 7);
  EXPECT_EQ(job.value().nodes, 10);

  SvcReply reply;
  reply.request_id = 42;
  reply.plugin = decoded.value().plugin;
  reply.world_version = 3;
  reply.body = "payload";
  auto reply_frame = twinsvc::decode_frame(encode_svc_reply(reply));
  ASSERT_TRUE(reply_frame.ok());
  EXPECT_EQ(reply_frame.value().type, twinsvc::FrameType::kSvcReply);
  auto got = decode_svc_reply(reply_frame.value().payload);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().request_id, 42u);
  EXPECT_EQ(got.value().world_version, 3u);
  EXPECT_EQ(got.value().body, "payload");

  auto busy_frame = twinsvc::decode_frame(encode_svc_busy(42));
  ASSERT_TRUE(busy_frame.ok());
  EXPECT_EQ(busy_frame.value().type, twinsvc::FrameType::kSvcBusy);
  auto busy = decode_svc_busy(busy_frame.value().payload);
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy.value(), 42u);
}

TEST(SvcFrame, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = encode_svc_request(sample_request());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        twinsvc::decode_frame(std::string_view(bytes).substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(SvcFrame, EveryFlippedByteFailsCleanly) {
  const std::string bytes = encode_svc_request(sample_request());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xff);
    EXPECT_FALSE(twinsvc::decode_frame(corrupted).ok())
        << "byte " << i << " flipped but decoded";
  }
}

TEST(SvcFrame, TrailingBytesRejectedByEveryBodyDecoder) {
  Job job;
  job.id = 1;
  job.walltime = 600;
  job.nodes = 4;
  EXPECT_FALSE(decode_submit_job(encode_submit_job(job) + "x").ok());
  EXPECT_FALSE(
      decode_start_projection(encode_start_projection({100, 50}) + "x").ok());
  EXPECT_FALSE(decode_candidates(encode_candidates({}) + "x").ok());
  EXPECT_FALSE(decode_verdicts(encode_verdicts({}) + "x").ok());
  EXPECT_FALSE(decode_trace_pair(encode_trace_pair({"a", "b"}) + "x").ok());
  EXPECT_FALSE(decode_dataset_spec(encode_dataset_spec({}) + "x").ok());
  EXPECT_FALSE(decode_reload_ack(encode_reload_ack({1, "l"}) + "x").ok());
}

TEST(SvcFrame, HugeDeclaredCandidateCountRejectedBeforeAllocation) {
  // The count u64 leads the candidate batch; claim ~2^64 candidates. The
  // decoder must reject against the bytes present, not reserve().
  std::string body = encode_candidates({});
  for (std::size_t i = 0; i < 8; ++i) body[i] = static_cast<char>(0xff);
  EXPECT_FALSE(decode_candidates(body).ok());
  std::string verdicts = encode_verdicts({});
  for (std::size_t i = 0; i < 8; ++i) verdicts[i] = static_cast<char>(0xff);
  EXPECT_FALSE(decode_verdicts(verdicts).ok());
}

TEST(SvcFrame, DatasetSpecValidatesShape) {
  DatasetSpec bad;
  bad.base_rate_per_hour = -1.0;
  EXPECT_FALSE(decode_dataset_spec(encode_dataset_spec(bad)).ok());
  DatasetSpec zero_check;
  zero_check.snapshot_check = 0;
  EXPECT_FALSE(decode_dataset_spec(encode_dataset_spec(zero_check)).ok());
  DatasetSpec good;
  auto round = decode_dataset_spec(encode_dataset_spec(good));
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  EXPECT_EQ(round.value().label, good.label);
  EXPECT_EQ(round.value().seed, good.seed);
  EXPECT_EQ(round.value().horizon, good.horizon);
}

/// A live server under adversarial clients, with the registry pinned so
/// each rejection path's counter can be asserted exactly.
class SvcFrameServer : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    ServerConfig config;
    config.io_timeout_ms = 2000;
    server_ = test_support::start_server(config);
    obs::Registry::global().reset_values();  // drop build-time samples
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    obs::Registry::set_enabled(false);
  }

  [[nodiscard]] static std::uint64_t counter(std::string_view name) {
    return obs::Registry::global().counter(name).value();
  }

  /// Rejections land asynchronously on connection threads; wait for the
  /// counter to settle at `expected` (fails the test on timeout).
  void wait_for_counter(std::string_view name, std::uint64_t expected) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(name) < expected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(counter(name), expected);
  }

  [[nodiscard]] Result<twinsvc::Socket> connect() {
    return twinsvc::dial(server_->endpoint(), 2000);
  }

  /// The server must still answer a well-formed request after abuse.
  void expect_server_alive() {
    ClientConfig config;
    config.endpoint = server_->endpoint();
    SvcClient client(config);
    Job job;
    job.id = 1;
    job.walltime = 3600;
    job.nodes = 10;
    auto projection = client.submit_job(job);
    EXPECT_TRUE(projection.ok()) << projection.error().to_string();
  }

  std::unique_ptr<SchedServer> server_;
};

TEST_F(SvcFrameServer, TruncationAtEveryPrefixCountedAndSurvived) {
  const std::string bytes = encode_svc_request(sample_request());
  // Prefix 0 is a clean EOF (no frame started, nothing to reject);
  // every longer strict prefix is a torn frame.
  std::uint64_t expected = 0;
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    auto socket = connect();
    ASSERT_TRUE(socket.ok()) << socket.error().to_string();
    ASSERT_TRUE(
        twinsvc::send_frame(socket.value(), std::string_view(bytes).substr(0, len),
                            1000)
            .ok());
    socket.value().close();
    ++expected;
  }
  wait_for_counter("svc.rejected.frame", expected);
  EXPECT_EQ(counter("svc.rejected.plugin"), 0u);
  EXPECT_EQ(counter("svc.requests"), 0u);
  expect_server_alive();
}

TEST_F(SvcFrameServer, EveryFlippedByteCountedAndSurvived) {
  const std::string bytes = encode_svc_request(sample_request());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xff);
    auto socket = connect();
    ASSERT_TRUE(socket.ok()) << socket.error().to_string();
    ASSERT_TRUE(twinsvc::send_frame(socket.value(), corrupted, 1000).ok());
    socket.value().close();
  }
  wait_for_counter("svc.rejected.frame", bytes.size());
  EXPECT_EQ(counter("svc.requests"), 0u);
  expect_server_alive();
}

TEST_F(SvcFrameServer, CrcSingleBitFlipGetsErrorNamingCrc) {
  std::string bytes = encode_svc_request(sample_request());
  bytes[twinsvc::kFrameHeaderSize + 2] =
      static_cast<char>(bytes[twinsvc::kFrameHeaderSize + 2] ^ 0x01);
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(socket.value(), bytes, 1000).ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().type, twinsvc::FrameType::kError);
  auto error = twinsvc::decode_error(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().request_id, 0u);  // the id never decoded
  EXPECT_NE(error.value().message.find("CRC"), std::string::npos)
      << error.value().message;
  wait_for_counter("svc.rejected.frame", 1);
  expect_server_alive();
}

TEST_F(SvcFrameServer, StaleProtocolVersionGetsErrorNamingBothVersions) {
  std::string bytes = encode_svc_request(sample_request());
  bytes[twinsvc::kFrameMagic.size()] = 1;  // a version-1 peer
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(socket.value(), bytes, 1000).ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().type, twinsvc::FrameType::kError);
  auto error = twinsvc::decode_error(reply.value().payload);
  ASSERT_TRUE(error.ok());
  const std::string& message = error.value().message;
  EXPECT_NE(message.find("version"), std::string::npos) << message;
  EXPECT_NE(message.find('2'), std::string::npos) << message;
  EXPECT_NE(message.find('1'), std::string::npos) << message;
  wait_for_counter("svc.rejected.frame", 1);
  expect_server_alive();
}

TEST_F(SvcFrameServer, OversizedDeclaredLengthRejectedBeforeAllocation) {
  std::string bytes = encode_svc_request(sample_request());
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[twinsvc::kFrameMagic.size() + 5 + i] = static_cast<char>(0xff);
  }
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(socket.value(), bytes, 1000).ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().type, twinsvc::FrameType::kError);
  auto error = twinsvc::decode_error(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error.value().message.find("cap"), std::string::npos)
      << error.value().message;
  wait_for_counter("svc.rejected.frame", 1);
  expect_server_alive();
}

TEST_F(SvcFrameServer, UnknownFrameTypeCountedAsFrameReject) {
  std::string bytes = encode_svc_request(sample_request());
  bytes[twinsvc::kFrameMagic.size() + 4] = 12;  // past every known family
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(socket.value(), bytes, 1000).ok());
  socket.value().close();
  wait_for_counter("svc.rejected.frame", 1);
  expect_server_alive();
}

TEST_F(SvcFrameServer, NonSvcFrameRejectedAtDispatch) {
  // A well-formed frame that is no request (an error frame): the frame
  // layer accepts it, dispatch rejects it and drops the line.
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(
                  socket.value(), twinsvc::encode_error(twinsvc::ErrorFrame{1, "x"}),
                  1000)
                  .ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().type, twinsvc::FrameType::kError);
  auto error = twinsvc::decode_error(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error.value().message.find("unexpected frame type"),
            std::string::npos)
      << error.value().message;
  wait_for_counter("svc.rejected.plugin", 1);
  EXPECT_EQ(counter("svc.rejected.frame"), 0u);
  expect_server_alive();
}

TEST_F(SvcFrameServer, UnknownPluginRejectedButConnectionSurvives) {
  SvcRequest request = sample_request();
  request.plugin = 999;
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(
      twinsvc::send_frame(socket.value(), encode_svc_request(request), 1000).ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_EQ(reply.value().type, twinsvc::FrameType::kError);
  auto error = twinsvc::decode_error(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().request_id, 42u);  // echoed, unlike frame errors
  EXPECT_NE(error.value().message.find("unknown svc plugin 999"),
            std::string::npos)
      << error.value().message;
  wait_for_counter("svc.rejected.plugin", 1);

  // The same connection then serves a good request: an unknown plugin is
  // a request error (the peer may speak a newer table), not a hangup.
  ASSERT_TRUE(
      twinsvc::send_frame(socket.value(), encode_svc_request(sample_request()), 1000)
          .ok());
  auto served = twinsvc::recv_frame(socket.value(), 5000);
  ASSERT_TRUE(served.ok()) << served.error().to_string();
  EXPECT_EQ(served.value().type, twinsvc::FrameType::kSvcReply);
  wait_for_counter("svc.replies", 1);
}

TEST_F(SvcFrameServer, MalformedSvcPayloadCountedAsFrameReject) {
  // A sealed kSvcRequest whose payload is garbage: the frame layer
  // passes it (CRC is over the garbage), decode_svc_request rejects it.
  const std::string bytes =
      twinsvc::seal_frame(twinsvc::FrameType::kSvcRequest, "junk");
  auto socket = connect();
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();
  ASSERT_TRUE(twinsvc::send_frame(socket.value(), bytes, 1000).ok());
  auto reply = twinsvc::recv_frame(socket.value(), 2000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().type, twinsvc::FrameType::kError);
  wait_for_counter("svc.rejected.frame", 1);
  expect_server_alive();
}

TEST_F(SvcFrameServer, CraftedMachineSpecGetsErrorNotACrash) {
  // row_leaves = rows = 65536: the int leaf product used to wrap to 0,
  // pass validation, and abort the whole server when a plugin built the
  // machine. Each plugin that decodes a machine spec must answer with a
  // request-level kError, and the connection must serve the next request.
  PartitionConfig topology;
  topology.row_leaves = 65536;
  topology.rows = 65536;
  const MachineSpec crafted = MachineSpec::partitioned(topology);
  DatasetSpec reload = test_support::small_dataset_spec();
  reload.machine = crafted;
  campaign::CellRequest cell;
  cell.policy_token = "base";
  cell.machine = crafted;
  twinsvc::EvalRequest eval;
  eval.machine = crafted;
  eval.trace = test_support::contended_trace();
  eval.snapshot = test_support::snapshot_at(MachineSpec::flat(100), eval.trace, 4);
  auto eval_body = twinsvc::encode_eval_request(eval);
  ASSERT_TRUE(eval_body.ok()) << eval_body.error().to_string();

  ClientConfig config;
  config.endpoint = server_->endpoint();
  SvcClient client(config);
  for (const auto& [plugin, body] :
       {std::pair{Plugin::kReload, encode_dataset_spec(reload)},
        std::pair{Plugin::kCampaign, campaign::encode_run_cell_payload(cell)},
        std::pair{Plugin::kEval, eval_body.value()}}) {
    auto reply = client.call(plugin, body);
    ASSERT_FALSE(reply.ok()) << to_string(plugin);
    EXPECT_NE(reply.error().to_string().find("invalid machine spec"),
              std::string::npos)
        << reply.error().to_string();
    Job job;
    job.id = 1;
    job.walltime = 3600;
    job.nodes = 10;
    EXPECT_TRUE(client.submit_job(job).ok()) << "after " << to_string(plugin);
  }
}

TEST_F(SvcFrameServer, UnboundedSubmitTimeGetsErrorNotAProjection) {
  // A walltime of INT64_MAX used to overflow t + walltime in the plan and
  // come back as an ordinary projection. It must get a request-level
  // kError, and the same connection must serve the next submit.
  Job job;
  job.id = 1;
  job.walltime = kNever;
  job.runtime = 3600;
  job.nodes = 16;
  ClientConfig config;
  config.endpoint = server_->endpoint();
  SvcClient client(config);
  const auto rejected = client.submit_job(job);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().to_string().find("outside"), std::string::npos)
      << rejected.error().to_string();
  job.walltime = 3600;
  EXPECT_TRUE(client.submit_job(job).ok());
}

TEST(SvcFrame, DatasetSpecTimesPastTheWireBoundRejected) {
  // The workload horizon and the twin's horizon and check interval.
  for (int field = 0; field < 3; ++field) {
    DatasetSpec spec = test_support::small_dataset_spec();
    (field == 0   ? spec.horizon
     : field == 1 ? spec.twin.horizon
                  : spec.twin.metric_check_interval) = snapshot_io::kMaxWireTime + 1;
    const auto decoded = decode_dataset_spec(encode_dataset_spec(spec));
    ASSERT_FALSE(decoded.ok()) << "field " << field;
    EXPECT_NE(decoded.error().to_string().find("outside"), std::string::npos)
        << decoded.error().to_string();
  }
}

TEST_F(SvcFrameServer, MismatchedEvalSnapshotGetsErrorNotACrash) {
  // Simulator::resume only asserts that a snapshot fits its trace and
  // machine, and release builds drop the assert: the eval plugin must
  // refuse a partition snapshot under a flat spec, and a snapshot of
  // another trace, before a fork indexes past them.
  const JobTrace trace = test_support::contended_trace();
  twinsvc::EvalRequest other_machine;
  other_machine.machine = MachineSpec::flat(100);
  other_machine.trace = trace;
  other_machine.snapshot =
      test_support::snapshot_at(MachineSpec::partitioned(), trace, 4);
  other_machine.candidates = test_support::grid_candidates();
  twinsvc::EvalRequest other_trace = other_machine;
  other_trace.trace = trace.prefix(30);
  other_trace.snapshot = test_support::snapshot_at(MachineSpec::flat(100), trace, 4);

  ClientConfig config;
  config.endpoint = server_->endpoint();
  SvcClient client(config);
  for (const twinsvc::EvalRequest* eval : {&other_machine, &other_trace}) {
    auto body = twinsvc::encode_eval_request(*eval);
    ASSERT_TRUE(body.ok()) << body.error().to_string();
    auto reply = client.call(Plugin::kEval, body.value());
    ASSERT_FALSE(reply.ok());
    EXPECT_NE(reply.error().to_string().find("request snapshot"),
              std::string::npos)
        << reply.error().to_string();
    Job job;
    job.id = 1;
    job.walltime = 3600;
    job.nodes = 10;
    EXPECT_TRUE(client.submit_job(job).ok()) << "after " << reply.error().to_string();
  }
}

}  // namespace
}  // namespace amjs::svc
