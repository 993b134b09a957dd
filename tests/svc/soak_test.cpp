// Concurrency soak: N client threads of mixed plugin traffic while a
// reloader thread hot-swaps the resident dataset — every reply must
// arrive intact (the frame CRC and strict body decoders make a torn or
// garbled reply a hard failure), every request must be served against
// exactly one world generation, and the versions one client observes
// must be monotone (a request can never be answered by an older world
// than its predecessor's). Run under AMJS_SANITIZE=thread this is the
// suite's data-race probe for the facade swap discipline.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "support/test_server.hpp"
#include "svc/client.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "svc/server.hpp"

namespace amjs::svc {
namespace {

constexpr unsigned kClientThreads = 4;
constexpr std::uint64_t kRequestsPerThread = 24;
constexpr std::uint64_t kReloads = 4;

DatasetSpec soak_spec(std::string label, std::uint64_t seed) {
  DatasetSpec spec = test_support::small_dataset_spec();
  spec.label = std::move(label);
  spec.seed = seed;
  return spec;
}

std::pair<std::string, std::string> trace_pair(std::uint64_t salt) {
  const auto render = [salt](SimTime second_start) {
    obs::TraceRecorder recorder;
    recorder.record(obs::TraceCategory::kJob, "submit", 0,
                    {obs::arg("job", static_cast<std::int64_t>(salt % 97))});
    recorder.record(obs::TraceCategory::kJob, "start", second_start,
                    {obs::arg("job", static_cast<std::int64_t>(salt % 97))});
    std::ostringstream out;
    recorder.write_jsonl(out, /*include_wall=*/false);
    return out.str();
  };
  return {render(100), render(160)};
}

struct WorkerOutcome {
  std::uint64_t replies = 0;
  std::vector<std::string> failures;
  /// world_version of every successful reply, in send order.
  std::vector<std::uint64_t> versions;
};

void run_worker(const ClientConfig& config, unsigned ordinal,
                WorkerOutcome& outcome) {
  SvcClient client(config);
  for (std::uint64_t i = 0; i < kRequestsPerThread; ++i) {
    const std::uint64_t salt = ordinal * 1000003ull + i;
    bool ok = false;
    std::string error;
    switch (salt % 3) {
      case 0: {
        Job job;
        job.id = static_cast<JobId>(1 + salt % 1000);
        job.walltime = 1800 + static_cast<Duration>(salt % 7200);
        job.nodes = static_cast<NodeCount>(1 + salt % 64);
        auto projection = client.submit_job(job);
        ok = projection.ok();
        if (ok) {
          EXPECT_GE(projection.value().wait, 0);
        } else {
          error = projection.error().to_string();
        }
        break;
      }
      case 1: {
        auto pair = trace_pair(salt);
        auto report = client.trace_explain(pair.first, pair.second);
        ok = report.ok();
        if (ok) {
          EXPECT_FALSE(report.value().empty());
        } else {
          error = report.error().to_string();
        }
        break;
      }
      default: {
        MetricAwareConfig a;
        a.policy = {0.5, 4};
        MetricAwareConfig b;
        b.policy = {1.0, 1};
        const std::vector<TwinCandidateSpec> candidates = {
            {a.policy.label(), a}, {b.policy.label(), b}};
        auto verdicts = client.what_if(candidates);
        ok = verdicts.ok();
        if (ok) {
          // A torn world would show up here: the verdict batch must be
          // complete and ordered whatever generation served it.
          EXPECT_EQ(verdicts.value().size(), candidates.size());
          if (verdicts.value().size() == candidates.size()) {
            EXPECT_EQ(verdicts.value()[0].label, candidates[0].label);
            EXPECT_EQ(verdicts.value()[1].label, candidates[1].label);
          }
        } else {
          error = verdicts.error().to_string();
        }
        break;
      }
    }
    if (ok) {
      ++outcome.replies;
      outcome.versions.push_back(client.last_world_version());
    } else {
      outcome.failures.push_back(std::move(error));
    }
  }
}

TEST(SvcSoak, MixedTrafficSurvivesHotSwapsWithZeroErrors) {
  ServerConfig config;
  // Enough headroom that nothing is shed: kClientThreads workers plus
  // the reloader never exceed max_inflight, so every request must be a
  // clean reply — busy would be a failure here, not an allowed outcome.
  config.max_inflight = 8;
  config.max_queue = 32;
  const auto owned =
      test_support::start_server(config, soak_spec("soak-boot", 2012));
  SchedServer& server = *owned;

  ClientConfig client_config;
  client_config.endpoint = server.endpoint();

  std::vector<WorkerOutcome> outcomes(kClientThreads);
  std::vector<std::uint64_t> reload_versions;
  std::vector<std::string> reload_failures;
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads + 1);
  for (unsigned t = 0; t < kClientThreads; ++t) {
    threads.emplace_back(
        [&, t] { run_worker(client_config, t, outcomes[t]); });
  }
  // The reloader swaps generations while the workers fire: each swap
  // rebuilds a dataset from a different seed, so a mid-request tear
  // (half old world, half new) would change answers structurally.
  threads.emplace_back([&] {
    SvcClient reloader(client_config);
    for (std::uint64_t i = 0; i < kReloads; ++i) {
      auto ack = reloader.reload(soak_spec("soak-" + std::to_string(i),
                                           3000 + i));
      if (ack.ok()) {
        reload_versions.push_back(ack.value().version);
      } else {
        reload_failures.push_back(ack.error().to_string());
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  server.stop();

  for (const std::string& failure : reload_failures) {
    ADD_FAILURE() << "reload failed: " << failure;
  }
  // Reloads are serial on one connection: versions 2, 3, ... in order.
  ASSERT_EQ(reload_versions.size(), kReloads);
  for (std::uint64_t i = 0; i < kReloads; ++i) {
    EXPECT_EQ(reload_versions[i], 2 + i);
  }

  std::uint64_t replies = 0;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    for (const std::string& failure : outcomes[t].failures) {
      ADD_FAILURE() << "worker " << t << ": " << failure;
    }
    replies += outcomes[t].replies;
    EXPECT_EQ(outcomes[t].replies, kRequestsPerThread);
    // One connection's requests are serial, and the facade version only
    // grows: the generations a worker observes must be monotone. A
    // regression (new request, older world) means the swap tore.
    const auto& versions = outcomes[t].versions;
    for (std::size_t i = 1; i < versions.size(); ++i) {
      EXPECT_GE(versions[i], versions[i - 1])
          << "worker " << t << " saw the world version regress at request "
          << i;
    }
    if (!versions.empty()) {
      EXPECT_GE(versions.front(), 1u);
      EXPECT_LE(versions.back(), 1 + kReloads);
    }
  }
  // Zero dropped requests: every worker request and every reload came
  // back as a counted kSvcReply.
  EXPECT_EQ(replies, kClientThreads * kRequestsPerThread);
  EXPECT_EQ(server.requests_served(),
            kClientThreads * kRequestsPerThread + kReloads);
  EXPECT_EQ(server.facade().version(), 1 + kReloads);
}

/// The facade alone, hammered directly: readers pin a generation while
/// a writer swaps — the shared_ptr handoff itself must be tear-free.
/// (The socketless twin of the soak, cheap enough to run everywhere.)
TEST(SvcSoak, FacadeSwapKeepsPinnedGenerationsAlive) {
  auto built = make_dataset(soak_spec("facade", 2012));
  ASSERT_TRUE(built.ok());
  const Dataset dataset = std::move(built).value();
  auto world = World::build(dataset, /*version=*/1);
  ASSERT_TRUE(world.ok());
  DataFacade facade(std::move(world).value());

  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&facade] {
      Job job;
      job.id = 1;
      job.walltime = 3600;
      job.nodes = 10;
      std::uint64_t last = 0;
      for (int i = 0; i < 200; ++i) {
        const std::shared_ptr<const World> pinned = facade.world();
        // The pinned generation stays fully usable even if the writer
        // swaps it out mid-iteration.
        auto projection = pinned->project_start(job);
        EXPECT_TRUE(projection.ok());
        EXPECT_GE(pinned->version(), last);
        last = pinned->version();
      }
    });
  }
  std::thread writer([&facade, &dataset] {
    for (int i = 0; i < 20; ++i) {
      auto next = World::build(dataset, facade.next_version());
      ASSERT_TRUE(next.ok());
      facade.swap(std::move(next).value());
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(facade.version(), 21u);
}

}  // namespace
}  // namespace amjs::svc
