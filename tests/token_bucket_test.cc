#include "tenant/token_bucket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace pinot {
namespace {

TEST(TokenBucketTest, StartsFull) {
  SimulatedClock clock;
  TokenBucket bucket(100, 10, &clock);
  EXPECT_TRUE(bucket.HasTokens());
  EXPECT_DOUBLE_EQ(bucket.Available(), 100);
}

TEST(TokenBucketTest, DeductCanGoNegative) {
  SimulatedClock clock;
  TokenBucket bucket(100, 10, &clock);
  bucket.Deduct(250);
  EXPECT_FALSE(bucket.HasTokens());
  EXPECT_DOUBLE_EQ(bucket.Available(), -150);
}

TEST(TokenBucketTest, RefillsOverTime) {
  SimulatedClock clock;
  TokenBucket bucket(100, 10, &clock);  // 10 tokens/sec = 0.01/ms.
  bucket.Deduct(100);
  EXPECT_FALSE(bucket.HasTokens());
  clock.AdvanceMillis(5000);  // +50 tokens.
  EXPECT_TRUE(bucket.HasTokens());
  EXPECT_NEAR(bucket.Available(), 50, 1e-9);
}

TEST(TokenBucketTest, RefillCapsAtCapacity) {
  SimulatedClock clock;
  TokenBucket bucket(100, 10, &clock);
  clock.AdvanceMillis(1000000);
  EXPECT_DOUBLE_EQ(bucket.Available(), 100);
}

TEST(TokenBucketTest, MillisUntilAvailable) {
  SimulatedClock clock;
  TokenBucket bucket(100, 10, &clock);
  EXPECT_EQ(bucket.MillisUntilAvailable(), 0);
  bucket.Deduct(200);  // Balance -100; at 0.01/ms needs 10000ms.
  const int64_t wait = bucket.MillisUntilAvailable();
  EXPECT_GE(wait, 10000);
  EXPECT_LE(wait, 10002);
  clock.AdvanceMillis(wait);
  EXPECT_TRUE(bucket.HasTokens());
}

TEST(TenantQuotaManagerTest, UnknownTenantAdmittedUnconditionally) {
  SimulatedClock clock;
  TenantQuotaManager manager(&clock);
  EXPECT_TRUE(manager.AdmitQuery("nobody", 0).ok());
  EXPECT_FALSE(manager.HasTenant("nobody"));
}

TEST(TenantQuotaManagerTest, ExhaustedTenantTimesOut) {
  SimulatedClock clock;
  TenantQuotaManager manager(&clock);
  manager.ConfigureTenant("t", {.burst_tokens = 10, .refill_per_second = 1});
  EXPECT_TRUE(manager.AdmitQuery("t", 100).ok());
  manager.RecordExecution("t", 1000);  // Exhausts the bucket.
  // Clock never advances -> admission must time out (the wait loop sleeps
  // in real time but checks the simulated deadline).
  Status st = manager.AdmitQuery("t", 0);
  EXPECT_TRUE(st.IsTimeout());
}

TEST(TenantQuotaManagerTest, IsolatesTenants) {
  SimulatedClock clock;
  TenantQuotaManager manager(&clock);
  manager.ConfigureTenant("noisy", {.burst_tokens = 10, .refill_per_second = 1});
  manager.ConfigureTenant("quiet", {.burst_tokens = 10, .refill_per_second = 1});
  manager.RecordExecution("noisy", 10000);
  // The noisy tenant's exhaustion does not affect the quiet tenant.
  EXPECT_TRUE(manager.AdmitQuery("quiet", 0).ok());
  EXPECT_TRUE(manager.AdmitQuery("noisy", 0).IsTimeout());
}

TEST(TenantQuotaManagerTest, ReconfigureDuringAdmitTakesEffect) {
  // Regression: AdmitQuery used to spin on a raw TokenBucket* while
  // ConfigureTenant destroyed the bucket under it (use-after-free). Now the
  // waiter keeps a shared_ptr alive and re-resolves each round, so a live
  // reconfigure both stays safe and actually unblocks the waiter.
  SimulatedClock clock;
  MetricsRegistry metrics;
  TenantQuotaManager manager(&clock, &metrics);
  manager.ConfigureTenant("t", {.burst_tokens = 10, .refill_per_second = 0});
  manager.RecordExecution("t", 1000);  // Exhausted; refill rate 0.

  Status admitted = Status::OK();
  std::thread waiter([&] {
    // Simulated deadline far away: only a reconfigure can unblock this.
    admitted = manager.AdmitQuery("t", int64_t{1} << 40);
  });
  // Let the waiter reach the wait loop (real-time sleep; the loop polls
  // every few real milliseconds), then swap in a fresh full bucket.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  manager.ConfigureTenant("t", {.burst_tokens = 10, .refill_per_second = 0});
  waiter.join();
  EXPECT_TRUE(admitted.ok()) << admitted.ToString();
  EXPECT_EQ(metrics.CounterValue("tenant_admitted_total", {{"tenant", "t"}}),
            1u);
}

TEST(TenantQuotaManagerTest, ConcurrentAdmitAndReconfigureIsSafe) {
  // Hammer AdmitQuery/RecordExecution from several threads while the main
  // thread reconfigures the same tenant. Pre-fix this dereferenced freed
  // buckets; the sanitizer stages of scripts/check.sh make the regression
  // loud.
  SimulatedClock clock;
  TenantQuotaManager manager(&clock);
  manager.ConfigureTenant("t", {.burst_tokens = 5, .refill_per_second = 0});

  std::atomic<bool> stop{false};
  std::vector<std::thread> admitters;
  for (int i = 0; i < 4; ++i) {
    admitters.emplace_back([&] {
      while (!stop.load()) {
        // Timeout 0: admit or time out immediately, never park.
        (void)manager.AdmitQuery("t", 0);
        manager.RecordExecution("t", 100);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    manager.ConfigureTenant("t",
                            {.burst_tokens = 5, .refill_per_second = 0});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& t : admitters) t.join();
  EXPECT_TRUE(manager.HasTenant("t"));
}

}  // namespace
}  // namespace pinot
