// svc wire format: round-trips must be lossless, and every corruption of
// a frame or a body — truncation at any prefix, any flipped byte, a stale
// protocol version, trailing garbage, a crafted field — must surface as a
// clean Result error, never a wrong decode. Same harness style as the
// snapshot container's corruption tests (tests/snapshot_io/codec_test.cpp).
#include "twinsvc/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/metric_aware.hpp"
#include "sim/snapshot.hpp"
#include "twinsvc/socket.hpp"

namespace amjs::twinsvc {
namespace {

JobTrace small_trace() {
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job j;
    j.submit = i * 500;
    j.runtime = 1500 + i * 300;
    j.walltime = j.runtime + 600;
    j.nodes = 10 + (i % 3) * 20;
    j.user = i % 2 == 0 ? "alice" : "bob";
    j.queue = i % 2;
    jobs.push_back(j);
  }
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

SimSnapshot snapshot_of(const JobTrace& trace) {
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == 2) snapshot = s;
  };
  FlatMachine machine(50);
  MetricAwareScheduler sched;
  Simulator sim(machine, sched, config);
  (void)sim.run(trace);
  EXPECT_TRUE(snapshot.valid());
  return snapshot;
}

EvalRequest sample_request(const JobTrace& trace, const SimSnapshot& snapshot) {
  EvalRequest request;
  request.machine = MachineSpec::flat(50);
  request.twin.horizon = hours(2);
  request.twin.metric_check_interval = minutes(15);
  request.twin.queue_weight = 1.5;
  request.twin.util_weight = 1234.5;
  request.trace = trace;
  request.snapshot = snapshot;
  for (const double bf : {0.25, 1.0}) {
    MetricAwareConfig cfg;
    cfg.policy = {bf, 2};
    request.candidates.push_back({cfg.policy.label(), cfg});
  }
  return request;
}

TEST(TwinsvcFrame, EvalRequestRoundTripsLossless) {
  const auto trace = small_trace();
  const auto snapshot = snapshot_of(trace);
  const EvalRequest request = sample_request(trace, snapshot);

  const auto body = encode_eval_request(request);
  ASSERT_TRUE(body.ok()) << body.error().to_string();
  const auto decoded = decode_eval_request(body.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const EvalRequest& got = decoded.value();
  EXPECT_EQ(got.machine.kind, MachineSpec::Kind::kFlat);
  EXPECT_EQ(got.machine.nodes, 50);
  EXPECT_EQ(got.twin.horizon, hours(2));
  EXPECT_EQ(got.twin.metric_check_interval, minutes(15));
  EXPECT_EQ(got.twin.queue_weight, 1.5);
  EXPECT_EQ(got.twin.util_weight, 1234.5);
  ASSERT_EQ(got.trace.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Job& a = trace.jobs()[i];
    const Job& b = got.trace.jobs()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.walltime, b.walltime);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.queue, b.queue);
  }
  EXPECT_EQ(got.snapshot.now, snapshot.now);
  EXPECT_EQ(got.snapshot.check_index, snapshot.check_index);
  ASSERT_EQ(got.candidates.size(), request.candidates.size());
  for (std::size_t i = 0; i < request.candidates.size(); ++i) {
    EXPECT_EQ(got.candidates[i].label, request.candidates[i].label);
    EXPECT_EQ(got.candidates[i].config.policy.balance_factor,
              request.candidates[i].config.policy.balance_factor);
    EXPECT_EQ(got.candidates[i].config.policy.window_size,
              request.candidates[i].config.policy.window_size);
  }
}

TEST(TwinsvcFrame, VerdictBatchAndErrorRoundTrip) {
  TwinForkResult verdict;
  verdict.label = "BF=0.50 W=2";
  verdict.avg_queue_depth_min = 123.456789;
  verdict.utilization = 0.87654321;
  verdict.objective = 370.11;
  verdict.wall_ms = 5.5;
  verdict.jobs_started = 19;
  const auto got = decode_verdicts(encode_verdicts({verdict, verdict}));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  ASSERT_EQ(got.value().size(), 2u);
  EXPECT_EQ(got.value()[1].label, verdict.label);
  // Doubles are bit-cast on the wire: exact equality, not approximate.
  EXPECT_EQ(got.value()[1].avg_queue_depth_min, verdict.avg_queue_depth_min);
  EXPECT_EQ(got.value()[1].utilization, verdict.utilization);
  EXPECT_EQ(got.value()[1].objective, verdict.objective);
  EXPECT_EQ(got.value()[1].wall_ms, verdict.wall_ms);
  EXPECT_EQ(got.value()[1].jobs_started, verdict.jobs_started);

  const auto error_frame =
      decode_frame(encode_error(ErrorFrame{0, "bad request"}));
  ASSERT_TRUE(error_frame.ok());
  const auto error = decode_error(error_frame.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().request_id, 0u);
  EXPECT_EQ(error.value().message, "bad request");
}

TEST(TwinsvcFrame, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = encode_error(ErrorFrame{9, "four"});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded = decode_frame(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(TwinsvcFrame, EveryFlippedByteFailsCleanly) {
  const std::string bytes = encode_error(ErrorFrame{9, "four"});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xff);
    const auto decoded = decode_frame(corrupted);
    EXPECT_FALSE(decoded.ok()) << "byte " << i << " flipped but decoded";
  }
}

TEST(TwinsvcFrame, SingleBitFlipInPayloadIsCaughtByCrc) {
  const std::string bytes = encode_error(ErrorFrame{1, "hello"});
  std::string corrupted = bytes;
  corrupted[kFrameHeaderSize + 2] =
      static_cast<char>(corrupted[kFrameHeaderSize + 2] ^ 0x01);
  const auto decoded = decode_frame(corrupted);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("CRC"), std::string::npos)
      << decoded.error().to_string();
}

TEST(TwinsvcFrame, StaleProtocolVersionNamesBothVersions) {
  std::string bytes = encode_error(ErrorFrame{9, "four"});
  bytes[kFrameMagic.size()] = 1;  // version u32 (little-endian) -> 1
  const auto decoded = decode_frame(bytes);
  ASSERT_FALSE(decoded.ok());
  const std::string message = decoded.error().to_string();
  EXPECT_NE(message.find("version"), std::string::npos) << message;
  EXPECT_NE(message.find('2'), std::string::npos) << message;
  EXPECT_NE(message.find('1'), std::string::npos) << message;
}

TEST(TwinsvcFrame, UnknownFrameTypeRejected) {
  // Past every known type, and the version-1 types that are gone.
  for (const int type : {12, 1, 2, 3, 5, 6}) {
    std::string bytes = encode_error(ErrorFrame{9, "four"});
    bytes[kFrameMagic.size() + 4] = static_cast<char>(type);
    EXPECT_FALSE(decode_frame(bytes).ok()) << "type " << type;
  }
}

TEST(TwinsvcFrame, TrailingGarbageRejected) {
  std::string bytes = encode_error(ErrorFrame{9, "four"});
  bytes.push_back('\0');
  EXPECT_FALSE(decode_frame(bytes).ok());
}

TEST(TwinsvcFrame, OversizedLengthFieldRejectedBeforeAllocation) {
  std::string bytes = encode_error(ErrorFrame{9, "four"});
  // Length u64 at offset 13: claim a payload far past the cap.
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kFrameMagic.size() + 5 + i] = static_cast<char>(0xff);
  }
  const auto decoded = decode_frame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("cap"), std::string::npos)
      << decoded.error().to_string();
}

TEST(TwinsvcFrame, HugeDeclaredJobCountRejectedBeforeAllocation) {
  const auto trace = small_trace();
  const auto snapshot = snapshot_of(trace);
  auto body = encode_eval_request(sample_request(trace, snapshot));
  ASSERT_TRUE(body.ok());
  // The job count u64 sits at a fixed body offset: machine spec
  // (1 + 4*8), twin params (4*8). Declare ~2^64 jobs; the decoder must
  // reject the count against the bytes actually present instead of
  // letting a CRC-valid crafted request drive a multi-gigabyte reserve().
  std::string payload = body.value();
  const std::size_t count_at = 33 + 32;
  for (std::size_t i = 0; i < 8; ++i) {
    payload[count_at + i] = static_cast<char>(0xff);
  }
  const auto decoded = decode_eval_request(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("implausible count"),
            std::string::npos)
      << decoded.error().to_string();
}

TEST(TwinsvcFrame, UnknownCandidateFamilyRejected) {
  const auto trace = small_trace();
  const auto snapshot = snapshot_of(trace);
  auto body = encode_eval_request(sample_request(trace, snapshot));
  ASSERT_TRUE(body.ok());
  // Rewrite the family tag inside the body. The candidates sit after the
  // nested snapshot (whose scheduler-state codec name also contains
  // "metric_aware"), so patch the LAST occurrence.
  std::string payload = body.value();
  const std::size_t at = payload.rfind(kCandidateFamilyMetricAware);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, kCandidateFamilyMetricAware.size(), "metric_xxxxx.v9");
  const auto decoded = decode_eval_request(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("family"), std::string::npos)
      << decoded.error().to_string();
}

TEST(TwinsvcFrame, InvalidCandidatePolicyRejected) {
  const auto trace = small_trace();
  const auto snapshot = snapshot_of(trace);
  EvalRequest request = sample_request(trace, snapshot);
  request.candidates[0].config.policy.balance_factor = -3.0;
  const auto body = encode_eval_request(request);
  ASSERT_TRUE(body.ok());
  EXPECT_FALSE(decode_eval_request(body.value()).ok());
}

TEST(TwinsvcFrame, CraftedMachineSpecsRejected) {
  // Each used to decode: a wrapped leaf product, a non-power-of-two row
  // (the constructor asserts on it), a row count narrowed to a different
  // machine, and a node total that overflows.
  const auto decode = [](MachineSpec::Kind kind, std::int64_t leaf_nodes,
                         std::int64_t row_leaves, std::int64_t rows) {
    snapshot_io::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    for (const std::int64_t v : {std::int64_t{0}, leaf_nodes, row_leaves, rows}) {
      w.i64(v);
    }
    snapshot_io::ByteReader r(w.data());
    return read_machine_spec(r);
  };
  constexpr auto kPartition = MachineSpec::Kind::kPartition;
  EXPECT_FALSE(decode(kPartition, 512, 65536, 65536).ok());
  EXPECT_FALSE(decode(kPartition, 512, 3, 5).ok());
  EXPECT_FALSE(decode(kPartition, 512, (std::int64_t{1} << 32) + 4, 5).ok());
  EXPECT_FALSE(decode(kPartition, std::int64_t{1} << 60, 16, 5).ok());
  EXPECT_TRUE(decode(kPartition, 512, 16, 5).ok());
}

TEST(TwinsvcFrame, SnapshotThatDoesNotFitItsTraceOrMachineRejected) {
  // The server restores an eval snapshot into forks, where resume() only
  // asserts the fit: another machine, another trace, a running job queued
  // again, its allocation lost, or a second end event must fail the decode.
  const auto trace = small_trace();
  const auto snapshot = snapshot_of(trace);
  const auto running = std::ranges::find(snapshot.states, SimJobState::kRunning);
  ASSERT_NE(running, snapshot.states.end());
  const auto job = static_cast<JobId>(running - snapshot.states.begin());
  const EvalRequest fits = sample_request(trace, snapshot);
  ASSERT_TRUE(decode_eval_request(encode_eval_request(fits).value()).ok());

  std::vector<EvalRequest> misfits(5, fits);
  misfits[0].machine = MachineSpec::flat(60);
  misfits[1].trace = trace.prefix(trace.size() - 1);
  misfits[2].snapshot.queue.push_back(job);
  auto machine = std::make_shared<FlatMachineState>(
      dynamic_cast<const FlatMachineState&>(*snapshot.machine));
  std::erase_if(machine->allocs, [job](const RunningAlloc& alloc) { return alloc.job == job; });
  misfits[3].snapshot.machine = machine;
  misfits[4].snapshot.events.push(snapshot.now + 60, EventType::kJobEnd, job);
  for (std::size_t i = 0; i < misfits.size(); ++i) {
    const auto decoded = decode_eval_request(encode_eval_request(misfits[i]).value());
    ASSERT_FALSE(decoded.ok()) << "misfit " << i;
    EXPECT_NE(decoded.error().to_string().find("request snapshot"),
              std::string::npos)
        << decoded.error().to_string();
  }
}

TEST(TwinsvcFrame, OutOfRangeCandidateFieldsRejected) {
  // window_size and max_window fill ints: a value past the int range must
  // fail, not narrow to a different (valid-looking) candidate.
  for (const bool window : {true, false}) {
    TwinCandidateSpec spec{"w", MetricAwareConfig{}};
    snapshot_io::ByteWriter w;
    write_candidate_spec(w, spec);
    std::string bytes = w.data();
    // The i64 sits 8 bytes before the two bools and the mode byte
    // (window_size), or in the last 8 bytes (max_window).
    const std::size_t at = window ? bytes.size() - 8 - 3 - 8 : bytes.size() - 8;
    bytes[at + 4] = 1;  // + 2^32
    snapshot_io::ByteReader r(bytes);
    EXPECT_FALSE(read_candidate_spec(r).ok()) << (window ? "window" : "max");
  }
}

TEST(TwinsvcFrame, TimesPastTheWireBoundRejected) {
  // Decoded times end up in sums (t + walltime in the plans, now + horizon
  // in the twin), so a job's submit, runtime and walltime and an eval's
  // horizon and check interval must lie in [0, kMaxWireTime]. The bound
  // itself still decodes.
  using snapshot_io::kMaxWireTime;
  const SimTime bad[] = {kMaxWireTime + 1, kNever, -1};
  const auto trace = small_trace();
  for (int field = 0; field < 3; ++field) {
    const auto decodes = [&](SimTime t) {
      Job job = trace.job(0);
      (field == 0 ? job.submit : field == 1 ? job.runtime : job.walltime) = t;
      snapshot_io::ByteWriter w;
      write_job(w, job);
      snapshot_io::ByteReader r(w.data());
      return read_job(r).ok();
    };
    for (const SimTime t : bad) EXPECT_FALSE(decodes(t)) << "field " << field << " = " << t;
    EXPECT_TRUE(decodes(kMaxWireTime)) << "field " << field;
  }

  const EvalRequest fits = sample_request(trace, snapshot_of(trace));
  for (const bool horizon : {true, false}) {
    for (const SimTime t : bad) {
      EvalRequest crafted = fits;
      (horizon ? crafted.twin.horizon : crafted.twin.metric_check_interval) = t;
      const auto body = encode_eval_request(crafted);
      ASSERT_TRUE(body.ok()) << body.error().to_string();
      const auto decoded = decode_eval_request(body.value());
      ASSERT_FALSE(decoded.ok()) << (horizon ? "horizon " : "interval ") << t;
      EXPECT_NE(decoded.error().to_string().find("outside"), std::string::npos)
          << decoded.error().to_string();
    }
  }
}

TEST(TwinsvcEndpoint, ParseAcceptsUnixAndTcp) {
  auto unix_ep = Endpoint::parse("unix:/tmp/twin.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_EQ(unix_ep.value().kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.value().path, "/tmp/twin.sock");
  EXPECT_EQ(unix_ep.value().to_string(), "unix:/tmp/twin.sock");

  auto tcp_ep = Endpoint::parse("tcp:127.0.0.1:7701");
  ASSERT_TRUE(tcp_ep.ok());
  EXPECT_EQ(tcp_ep.value().kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.value().host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.value().port, 7701);
  EXPECT_EQ(tcp_ep.value().to_string(), "tcp:127.0.0.1:7701");
}

TEST(TwinsvcEndpoint, ParseRejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("").ok());
  EXPECT_FALSE(Endpoint::parse("http:/x").ok());
  EXPECT_FALSE(Endpoint::parse("unix:").ok());
  EXPECT_FALSE(Endpoint::parse("tcp:127.0.0.1").ok());
  EXPECT_FALSE(Endpoint::parse("tcp:127.0.0.1:notaport").ok());
  EXPECT_FALSE(Endpoint::parse("tcp:127.0.0.1:70000").ok());
}

}  // namespace
}  // namespace amjs::twinsvc
