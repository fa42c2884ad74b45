// Seeded concurrency soak for the fleet-serving layer (ISSUE satellite 2).
//
// Producer threads interleave ingest for disjoint tenant sets (one producer
// owns a tenant, so per-tenant chunk order is well defined), a drainer
// thread scores continuously, and an admin thread adds and removes tenants
// mid-stream. A fault-injected subset of tenants feeds NaN-saturated
// chunks. Run under TSan in CI (the .github/workflows tsan job), this is
// the fleet's race detector; the assertions below are its semantic half:
//
//  * no cross-tenant leakage — every surviving clean tenant's timeline is
//    bit-identical to a standalone replay of exactly the chunks the fleet
//    accepted for it;
//  * queue depth never exceeds its configured bound;
//  * dirty tenants end up degraded/rejecting with failed passes, while
//    clean tenants keep scoring (no fleet-wide stall);
//  * the admission ledger balances: submitted == accepted + degraded +
//    rejected.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/streaming.h"
#include "data/ucr_generator.h"
#include "serve/fleet_server.h"

namespace triad::serve {
namespace {

core::TriadConfig TinyConfig() {
  core::TriadConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.seed = 5;
  config.merlin_length_step = 4;
  return config;
}

data::UcrDataset SmallDataset(uint64_t seed) {
  data::UcrGeneratorOptions gen;
  gen.count = 1;
  gen.seed = seed;
  gen.min_period = 32;
  gen.max_period = 32;
  gen.min_train_periods = 14;
  gen.max_train_periods = 14;
  gen.min_test_periods = 6;
  gen.max_test_periods = 6;
  return data::MakeUcrArchive(gen)[0];
}

std::shared_ptr<const core::TriadDetector> SharedDetector() {
  static const std::shared_ptr<const core::TriadDetector> detector = [] {
    auto d = std::make_shared<core::TriadDetector>(TinyConfig());
    const data::UcrDataset ds = SmallDataset(61);
    TRIAD_CHECK(d->Fit(ds.train).ok());
    return std::shared_ptr<const core::TriadDetector>(d);
  }();
  return detector;
}

TEST(ServeSoakTest, ConcurrentFleetStaysIsolatedBoundedAndLive) {
  constexpr int kProducers = 4;
  constexpr int kTenantsPerProducer = 3;  // first one per producer is dirty
  constexpr int kChunksPerTenant = 96;
  auto detector = SharedDetector();

  FleetOptions options;
  options.qos_window = 8;
  options.qos_min_passes = 4;
  options.probation_interval = 4;
  FleetServer fleet(options);

  // Register the long-lived tenants up front; the admin thread churns its
  // own short-lived ones on top.
  struct TenantLog {
    int64_t id = 0;
    bool dirty = false;
    std::vector<double> feed;          // what the producer will offer
    std::vector<double> accepted;      // what the fleet actually took
  };
  std::vector<std::vector<TenantLog>> logs(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int t = 0; t < kTenantsPerProducer; ++t) {
      TenantLog log;
      auto id = fleet.AddTenant(detector);
      ASSERT_TRUE(id.ok());
      log.id = *id;
      log.dirty = t == 0;
      log.feed = SmallDataset(300 + static_cast<uint64_t>(p * 16 + t)).test;
      logs[static_cast<size_t>(p)].push_back(std::move(log));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bound_violated{false};
  std::atomic<uint64_t> drains{0};

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto passes = fleet.Drain();
      ASSERT_TRUE(passes.ok());
      drains.fetch_add(1, std::memory_order_relaxed);
      if (fleet.stats().queue_chunks > fleet.options().max_queue_chunks) {
        bound_violated.store(true, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
    // Final sweep so nothing submitted before stop is left pending.
    ASSERT_TRUE(fleet.Drain().ok());
  });

  std::thread admin([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto id = fleet.AddTenant(detector);
      if (id.ok()) {
        std::vector<double> burst(32, 1.0);
        (void)fleet.Ingest(*id, burst);
        std::this_thread::yield();
        ASSERT_TRUE(fleet.RemoveTenant(*id).ok());
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + static_cast<uint64_t>(p));
      auto& mine = logs[static_cast<size_t>(p)];
      std::vector<size_t> offsets(mine.size(), 0);
      for (int round = 0; round < kChunksPerTenant; ++round) {
        for (size_t t = 0; t < mine.size(); ++t) {
          TenantLog& log = mine[t];
          std::vector<double> chunk;
          if (log.dirty) {
            chunk.assign(static_cast<size_t>(rng.UniformInt(8, 24)),
                         std::numeric_limits<double>::quiet_NaN());
          } else {
            const size_t n = static_cast<size_t>(rng.UniformInt(1, 24));
            for (size_t i = 0; i < n; ++i) {
              chunk.push_back(log.feed[offsets[t] % log.feed.size()]);
              ++offsets[t];
            }
          }
          auto status = fleet.Ingest(log.id, chunk);
          ASSERT_TRUE(status.ok());
          if (*status != IngestStatus::kRejected) {
            log.accepted.insert(log.accepted.end(), chunk.begin(),
                                chunk.end());
          }
        }
        if (round % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  admin.join();
  drainer.join();

  // Whether the concurrent phase already pushed a dirty tenant onto the
  // rejecting rung depends on how the drainer raced the producers, so the
  // backpressure check does not rely on it: with every thread joined, feed
  // each dirty tenant one NaN chunk at a time, each scored by a synchronous
  // Drain, until the QoS ladder rejects one.
  constexpr int kMaxBackpressureChunks = 64;
  for (auto& mine : logs) {
    for (TenantLog& log : mine) {
      if (!log.dirty) continue;
      bool rejected = false;
      for (int k = 0; k < kMaxBackpressureChunks && !rejected; ++k) {
        const std::vector<double> chunk(
            16, std::numeric_limits<double>::quiet_NaN());
        auto status = fleet.Ingest(log.id, chunk);
        ASSERT_TRUE(status.ok());
        rejected = *status == IngestStatus::kRejected;
        if (!rejected) {
          log.accepted.insert(log.accepted.end(), chunk.begin(), chunk.end());
          ASSERT_TRUE(fleet.Drain().ok());
        }
      }
      EXPECT_TRUE(rejected) << "tenant " << log.id << " never rejected";
    }
  }

  EXPECT_FALSE(bound_violated.load());
  EXPECT_GT(drains.load(), 0u);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.degraded + stats.rejected);
  EXPECT_EQ(stats.queue_chunks, 0);
  EXPECT_EQ(stats.append_errors, 0u);
  EXPECT_GT(stats.rejected, 0u) << "dirty tenants never hit the ladder";

  for (auto& mine : logs) {
    for (const TenantLog& log : mine) {
      auto snap = fleet.Tenant(log.id);
      ASSERT_TRUE(snap.ok());
      EXPECT_TRUE(snap->last_error.ok());
      if (log.dirty) {
        // The ladder did its job without wedging the stream.
        EXPECT_GT(snap->failed_passes, 0);
        EXPECT_NE(snap->rung, QosRung::kHealthy);
      } else {
        // Liveness: clean tenants kept scoring next to dirty ones.
        EXPECT_EQ(snap->rung, QosRung::kHealthy);
        EXPECT_GT(snap->passes, 0);
        EXPECT_EQ(snap->failed_passes, 0);
      }
      // Isolation: the fleet timeline is a bit-identical replay of exactly
      // the accepted chunks, dirty tenants included.
      core::StreamingTriad standalone(detector.get());
      ASSERT_TRUE(standalone.Append(log.accepted).ok());
      EXPECT_EQ(snap->total_points,
                static_cast<int64_t>(log.accepted.size()));
      EXPECT_EQ(snap->passes, standalone.passes());
      EXPECT_EQ(snap->failed_passes, standalone.failed_passes());
      ASSERT_EQ(snap->alarms.size(), standalone.alarms().size());
      for (size_t i = 0; i < snap->alarms.size(); ++i) {
        ASSERT_EQ(snap->alarms[i], standalone.alarms()[i])
            << "tenant " << log.id << " alarm@" << i;
      }
      ASSERT_EQ(snap->gaps.size(), standalone.gaps().size());
      for (size_t i = 0; i < snap->gaps.size(); ++i) {
        EXPECT_EQ(snap->gaps[i].begin, standalone.gaps()[i].begin);
        EXPECT_EQ(snap->gaps[i].end, standalone.gaps()[i].end);
      }
    }
  }
}

}  // namespace
}  // namespace triad::serve
