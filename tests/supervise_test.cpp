// Tests for the supervision primitives: the write-ahead study journal
// (format strictness, torn-record salvage, the complete marker and gc),
// CancelToken semantics, and — via gtest death tests — the crash-point
// fuzzer proving that a SIGKILL at any publication point leaves either a
// valid object/record or a clean miss, never a torn read.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cancel.hpp"
#include "common/crc32.hpp"
#include "common/crash_point.hpp"
#include "pipeline/fingerprint.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "supervise/journal.hpp"

namespace osim::supervise {
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

JournalEntry sample_entry(int seed, ScenarioStatus status = ScenarioStatus::kOk) {
  JournalEntry e;
  e.fingerprint = fp(100 + static_cast<std::uint64_t>(seed),
                     200 + static_cast<std::uint64_t>(seed));
  e.status = status;
  e.makespan = 1.5 + 0.25 * seed;
  e.fault_wait_s = 0.125 * seed;
  e.progress_wait_s = 0.0625 * seed;
  e.partial_blocked_s = status == ScenarioStatus::kOk ? 0.0 : 0.5 * seed;
  e.fault_counts.enabled = seed % 2 != 0;
  e.fault_counts.seed = static_cast<std::uint64_t>(seed);
  e.fault_counts.retransmits = static_cast<std::uint64_t>(3 * seed);
  return e;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- status names and study fingerprints ------------------------------------

TEST(ScenarioStatusName, StableWireNames) {
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kOk), "ok");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kTimeout), "timeout");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kCancelled), "cancelled");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kFailed), "failed");
  EXPECT_STREQ(scenario_status_name(ScenarioStatus::kSkippedResume),
               "skipped-resume");
}

TEST(StudyFingerprint, DeterministicAndDiscriminating) {
  const pipeline::Fingerprint a = study_fingerprint("bench|ranks=16");
  EXPECT_EQ(a, study_fingerprint("bench|ranks=16"));
  EXPECT_NE(a, study_fingerprint("bench|ranks=32"));
  EXPECT_NE(a, study_fingerprint(""));
  // Both lanes must carry signal (a one-lane fingerprint would halve the
  // collision resistance the journal key relies on).
  EXPECT_NE(a.lo, 0u);
  EXPECT_NE(a.hi, 0u);
  EXPECT_NE(a.lo, a.hi);
}

// --- journal round trips ----------------------------------------------------

TEST(StudyJournal, AppendReopenRecovers) {
  const std::string root = fresh_dir("roundtrip");
  const pipeline::Fingerprint study = study_fingerprint("roundtrip-study");
  const std::vector<JournalEntry> entries = {
      sample_entry(1), sample_entry(2, ScenarioStatus::kTimeout),
      sample_entry(3, ScenarioStatus::kFailed)};
  {
    StudyJournal journal(root, study);
    EXPECT_TRUE(journal.recovered().empty());
    EXPECT_FALSE(journal.recovered_complete());
    for (const JournalEntry& e : entries) journal.append(e);
  }
  StudyJournal reopened(root, study);
  EXPECT_EQ(reopened.recovered(), entries);
  EXPECT_FALSE(reopened.recovered_complete());
  EXPECT_TRUE(fs::exists(StudyJournal::path_for(root, study)));
}

TEST(StudyJournal, CompleteMarkerSurvivesReopen) {
  const std::string root = fresh_dir("complete");
  const pipeline::Fingerprint study = study_fingerprint("complete-study");
  {
    StudyJournal journal(root, study);
    journal.append(sample_entry(1));
    journal.append_complete();
  }
  StudyJournal reopened(root, study);
  EXPECT_EQ(reopened.recovered().size(), 1u);
  EXPECT_TRUE(reopened.recovered_complete());
}

TEST(StudyJournal, AlienStudyMeansFreshJournal) {
  // A journal keyed by a different study id at the same path (hash
  // collision, hand-copied file) is discarded, not trusted.
  const std::string root = fresh_dir("alien");
  const pipeline::Fingerprint ours = study_fingerprint("ours");
  const pipeline::Fingerprint theirs = study_fingerprint("theirs");
  {
    StudyJournal journal(root, theirs);
    journal.append(sample_entry(1));
  }
  fs::create_directories(root + "/journals");
  fs::copy_file(StudyJournal::path_for(root, theirs),
                StudyJournal::path_for(root, ours),
                fs::copy_options::overwrite_existing);
  StudyJournal journal(root, ours);
  EXPECT_TRUE(journal.recovered().empty());
}

TEST(StudyJournal, TornTailIsTruncatedNotFatal) {
  const std::string root = fresh_dir("torn");
  const pipeline::Fingerprint study = study_fingerprint("torn-study");
  const std::vector<JournalEntry> entries = {sample_entry(1),
                                             sample_entry(2)};
  {
    StudyJournal journal(root, study);
    for (const JournalEntry& e : entries) journal.append(e);
  }
  const std::string path = StudyJournal::path_for(root, study);
  const std::string intact = read_file(path);

  // A crash mid-append leaves any prefix of the last record; every torn
  // length must salvage the first two entries and stay appendable.
  for (const std::size_t keep :
       {intact.size() - 1, intact.size() - 7, intact.size() - 20}) {
    write_file(path, intact.substr(0, keep) + std::string("\x7f\x01", 2));
    StudyJournal salvaged(root, study);
    EXPECT_LE(salvaged.recovered().size(), entries.size());
    if (!salvaged.recovered().empty()) {
      EXPECT_EQ(salvaged.recovered()[0], entries[0]);
    }
    salvaged.append(sample_entry(9));  // the file is healthy again
  }
  StudyJournal final_state(root, study);
  ASSERT_FALSE(final_state.recovered().empty());
  EXPECT_EQ(final_state.recovered().back(), sample_entry(9));
}

TEST(StudyJournal, CorruptRecordEndsTheValidPrefix) {
  const std::string root = fresh_dir("corrupt");
  const pipeline::Fingerprint study = study_fingerprint("corrupt-study");
  {
    StudyJournal journal(root, study);
    journal.append(sample_entry(1));
    journal.append(sample_entry(2));
  }
  const std::string path = StudyJournal::path_for(root, study);
  std::string bytes = read_file(path);
  bytes[bytes.size() - 6] = static_cast<char>(bytes[bytes.size() - 6] ^ 0x20);
  write_file(path, bytes);
  StudyJournal journal(root, study);
  ASSERT_EQ(journal.recovered().size(), 1u);
  EXPECT_EQ(journal.recovered()[0], sample_entry(1));
}

// Journal records are framed one by one: u32 payload size, payload, u32
// CRC of the payload, after a 32-byte header. These helpers forge records
// with a valid CRC so only the bound under test can end the valid prefix.

constexpr std::size_t kJournalHeaderBytes = 32;

std::string sealed_record(std::string_view payload) {
  std::string record;
  bytes::Writer w(record);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
  return record;
}

/// The payload a journal writes for `entry`.
std::string payload_of(const JournalEntry& entry) {
  const std::string root = fresh_dir("payload");
  StudyJournal journal(root, study_fingerprint("payload"));
  journal.append(entry);
  const std::string file = read_file(journal.path());
  const std::uint32_t size =
      bytes::load_le<std::uint32_t>(file.data() + kJournalHeaderBytes);
  return file.substr(kJournalHeaderBytes + 4, size);
}

/// Appends a forged record after one genuine entry and reopens.
std::vector<JournalEntry> recover_with_forged_record(
    const std::string& name, const std::string& forged_payload) {
  const std::string root = fresh_dir(name);
  const pipeline::Fingerprint study = study_fingerprint(name);
  {
    StudyJournal journal(root, study);
    journal.append(sample_entry(1));
  }
  const std::string path = StudyJournal::path_for(root, study);
  write_file(path, read_file(path) + sealed_record(forged_payload));
  StudyJournal journal(root, study);
  return journal.recovered();
}

TEST(StudyJournal, ForgedRecordHelperIsFaithful) {
  EXPECT_EQ(
      recover_with_forged_record("faithful", payload_of(sample_entry(2)))
          .size(),
      2u);
}

TEST(StudyJournal, RecordAboveMaxPayloadEndsTheValidPrefix) {
  // kMaxPayloadBytes (4096) holds even for a record whose CRC is valid.
  std::string payload(4097, '\0');
  payload[0] = 1;  // "study complete" kind
  const std::vector<JournalEntry> recovered =
      recover_with_forged_record("oversized", payload);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0], sample_entry(1));
}

TEST(StudyJournal, StatusAboveSkippedResumeEndsTheValidPrefix) {
  std::string payload =
      payload_of(sample_entry(2, ScenarioStatus::kSkippedResume));
  constexpr std::size_t kStatusAt = 1 + 16;
  ASSERT_EQ(payload[kStatusAt], 4);
  payload[kStatusAt] = 5;
  EXPECT_EQ(recover_with_forged_record("status", payload).size(), 1u);
}

TEST(StudyJournal, FaultsEnabledByteAboveOneEndsTheValidPrefix) {
  std::string payload = payload_of(sample_entry(3));
  constexpr std::size_t kEnabledAt = 1 + 16 + 1 + 4 * 8;
  ASSERT_EQ(payload[kEnabledAt], 1);
  payload[kEnabledAt] = 2;
  EXPECT_EQ(recover_with_forged_record("enabled", payload).size(), 1u);
}

TEST(StudyJournal, ListAndGc) {
  const std::string root = fresh_dir("gc");
  const pipeline::Fingerprint done = study_fingerprint("done-study");
  const pipeline::Fingerprint live = study_fingerprint("live-study");
  {
    StudyJournal a(root, done);
    a.append(sample_entry(1));
    a.append_complete();
    StudyJournal b(root, live);
    b.append(sample_entry(2));
    b.append(sample_entry(3, ScenarioStatus::kTimeout));
  }
  write_file(root + "/journals/garbage.osimjrn", "not a journal");

  const std::vector<JournalInfo> journals = list_journals(root);
  ASSERT_EQ(journals.size(), 3u);
  std::size_t complete = 0, valid = 0, entries = 0, ok = 0;
  for (const JournalInfo& j : journals) {
    if (j.complete) ++complete;
    if (j.valid) ++valid;
    entries += j.entries;
    ok += j.ok;
  }
  EXPECT_EQ(complete, 1u);
  EXPECT_EQ(valid, 2u);
  EXPECT_EQ(entries, 3u);
  EXPECT_EQ(ok, 2u);

  // gc removes the finished study and the unreadable file, keeps the
  // in-progress journal a --resume still needs.
  EXPECT_EQ(gc_journals(root), 2u);
  EXPECT_FALSE(fs::exists(StudyJournal::path_for(root, done)));
  EXPECT_TRUE(fs::exists(StudyJournal::path_for(root, live)));
  EXPECT_FALSE(fs::exists(root + "/journals/garbage.osimjrn"));
}

TEST(ListJournals, EmptyOrMissingDirectory) {
  const std::string root = fresh_dir("empty");
  EXPECT_TRUE(list_journals(root).empty());
  EXPECT_EQ(gc_journals(root), 0u);
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
// either a valid object/record or a clean miss — never a torn read.

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
  // strictly even though the index update never happened.
  store::ScenarioStore store(dir);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, crash_artifact());
  EXPECT_TRUE(store.verify().clean());
}

TEST(CrashPointDeath, JournalAppendBeforeWriteLosesOnlyThatRecord) {
  const std::string root = fresh_dir("crash_append");
  const pipeline::Fingerprint study = study_fingerprint("crash-append");
  {
    StudyJournal journal(root, study);
    journal.append(sample_entry(1));
  }
  EXPECT_EXIT(
      {
        setenv("OSIM_CRASH_POINT", "journal.append", 1);
        StudyJournal journal(root, study);
        journal.append(sample_entry(2));
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  unsetenv("OSIM_CRASH_POINT");
  StudyJournal journal(root, study);
  ASSERT_EQ(journal.recovered().size(), 1u);
  EXPECT_EQ(journal.recovered()[0], sample_entry(1));
}

TEST(CrashPointDeath, JournalAppendTornMidRecordSalvagesThePrefix) {
  const std::string root = fresh_dir("crash_torn");
  const pipeline::Fingerprint study = study_fingerprint("crash-torn");
  {
    StudyJournal journal(root, study);
    journal.append(sample_entry(1));
  }
  EXPECT_EXIT(
      {
        setenv("OSIM_CRASH_POINT", "journal.append.torn", 1);
        StudyJournal journal(root, study);
        journal.append(sample_entry(2));
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  unsetenv("OSIM_CRASH_POINT");
  // The second record was flushed only to its torn midpoint: salvage must
  // keep exactly the first entry and the journal must accept new appends.
  StudyJournal journal(root, study);
  ASSERT_EQ(journal.recovered().size(), 1u);
  EXPECT_EQ(journal.recovered()[0], sample_entry(1));
  journal.append(sample_entry(3));
  StudyJournal reopened(root, study);
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_EQ(reopened.recovered()[1], sample_entry(3));
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
}  // namespace osim::supervise
