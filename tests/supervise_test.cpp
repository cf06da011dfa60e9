// Tests for the supervision primitives: stable scenario status names,
// CancelToken semantics, and — via gtest death tests — the crash-point
// fuzzer proving that a SIGKILL at any publication point leaves either a
// valid object or a clean miss, never a torn read. That invariant is what
// makes a rerun on the same store the resume of a killed sweep.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/cancel.hpp"
#include "common/crash_point.hpp"
#include "pipeline/fingerprint.hpp"
#include "pipeline/study.hpp"
#include "store/format.hpp"
#include "store/store.hpp"

namespace osim {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_supervise_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

pipeline::Fingerprint fp(std::uint64_t lo, std::uint64_t hi) {
  return pipeline::Fingerprint{lo, hi};
}

// --- status names -----------------------------------------------------------

TEST(ScenarioStatusName, StableWireNames) {
  using pipeline::ScenarioStatus;
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kOk), "ok");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kTimeout), "timeout");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kCancelled), "cancelled");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kFailed), "failed");
}

// --- CancelToken -------------------------------------------------------------

TEST(CancelToken, UnarmedNeverStops) {
  const CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_EQ(token.check(), StopCause::kNone);
}

TEST(CancelToken, FlagFiresCancel) {
  std::atomic<bool> flag{false};
  CancelToken token(&flag);
  EXPECT_TRUE(token.armed());
  EXPECT_EQ(token.check(), StopCause::kNone);
  flag.store(true);
  EXPECT_EQ(token.check(), StopCause::kCancel);
}

TEST(CancelToken, ExpiredDeadlinesFireByPriority) {
  using Clock = CancelToken::Clock;
  const Clock::time_point past = Clock::now() - std::chrono::seconds(1);

  CancelToken scenario_only;
  scenario_only.set_scenario_deadline(past);
  EXPECT_TRUE(scenario_only.armed());
  EXPECT_EQ(scenario_only.check(), StopCause::kScenarioTimeout);

  // The study deadline outranks the scenario one...
  CancelToken both;
  both.set_scenario_deadline(past);
  both.set_study_deadline(past);
  EXPECT_EQ(both.check(), StopCause::kStudyDeadline);

  // ...and the external flag outranks every deadline.
  std::atomic<bool> flag{true};
  CancelToken all(&flag);
  all.set_scenario_deadline(past);
  all.set_study_deadline(past);
  EXPECT_EQ(all.check(), StopCause::kCancel);
}

TEST(CancelToken, FutureDeadlinesDoNotFire) {
  CancelToken token;
  token.set_scenario_deadline(CancelToken::Clock::now() +
                              std::chrono::hours(1));
  EXPECT_TRUE(token.armed());
  EXPECT_EQ(token.check(), StopCause::kNone);
}

TEST(CancelledError, CarriesCauseAndPartialProgress) {
  PartialProgress partial;
  partial.sim_time_s = 1.5;
  partial.des_events = 42;
  partial.blocked_s = 0.25;
  const CancelledError e(StopCause::kScenarioTimeout, partial);
  EXPECT_EQ(e.cause(), StopCause::kScenarioTimeout);
  EXPECT_EQ(e.partial().des_events, 42u);
  EXPECT_NE(std::string(e.what()).find("scenario-timeout"),
            std::string::npos);
}

// --- crash-point fuzzing -----------------------------------------------------
//
// Each death test re-runs a publication sequence in a forked child with
// OSIM_CRASH_POINT set, asserts the child dies by SIGKILL at the injected
// point, then verifies the invariant from the parent: the on-disk state is
// either a valid object or a clean miss — never a torn read.

store::ScenarioArtifact crash_artifact() {
  store::ScenarioArtifact a;
  a.makespan = 2.5;
  a.des_events = 77;
  dimemas::RankStats rs;
  rs.compute_s = 1.0;
  a.rank_stats.push_back(rs);
  return a;
}

TEST(CrashPointDeath, StorePublishBeforeRenameIsACleanMiss) {
  const std::string dir = fresh_dir("crash_tmp");
  const pipeline::Fingerprint key = fp(10, 20);
  EXPECT_EXIT(
      {
        setenv("OSIM_CRASH_POINT", "store.publish.tmp", 1);
        store::ScenarioStore store(dir);
        store.save(key, crash_artifact());
        std::_Exit(0);  // unreachable: save() must die at the crash point
      },
      ::testing::KilledBySignal(SIGKILL), "");
  unsetenv("OSIM_CRASH_POINT");
  store::ScenarioStore store(dir);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.rejects(), 0u);  // a miss, not a torn object
  EXPECT_TRUE(store.verify().clean());
}

TEST(CrashPointDeath, StorePublishAfterRenameIsAValidObject) {
  const std::string dir = fresh_dir("crash_renamed");
  const pipeline::Fingerprint key = fp(30, 40);
  EXPECT_EXIT(
      {
        setenv("OSIM_CRASH_POINT", "store.publish.renamed", 1);
        store::ScenarioStore store(dir);
        store.save(key, crash_artifact());
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  unsetenv("OSIM_CRASH_POINT");
  // The object was renamed into place before the kill: it must decode
  // strictly.
  store::ScenarioStore store(dir);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, crash_artifact());
  EXPECT_TRUE(store.verify().clean());
}

TEST(CrashPoint, NthHitCountsFromOne) {
  // maybe_crash() with a :N suffix must survive N-1 hits; exercised in
  // process with a point no other test uses (counters are process-global).
  setenv("OSIM_CRASH_POINT", "test.nth:3", 1);
  maybe_crash("test.nth");       // hit 1
  maybe_crash("test.other");     // different point, no effect on the count
  maybe_crash("test.nth");       // hit 2 — still alive
  EXPECT_EXIT(
      {
        maybe_crash("test.nth");  // hit 3 fires (counter survives the fork)
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  unsetenv("OSIM_CRASH_POINT");
}

}  // namespace
}  // namespace osim
