// Tests for ivnet/sim/campaign: cell canonicalization and content hashing,
// strict numeric parameters, journal crash-consistency (torn-tail skipping,
// no write when nothing is appended), self-verifying journal records
// (hash(cell) check, corrupt-record counting, truncation and byte-flip
// fuzzing), kill-and-resume byte
// determinism, the process-wide memo cache (duplicate and cross-campaign
// sharing), thread-count invariance, the obs:: counter surface, and the
// journal durability contract (failed appends throw; raw \r bytes
// round-trip through the binary-mode reader; a result that is not one JSON
// object on one line throws and is never journaled). The distributed fleet
// lives in campaign_shard_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/metrics.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/campaign.hpp"

namespace ivnet {
namespace {

std::atomic<int> g_synth_calls{0};

// Deterministic synthetic evaluator: result depends only on the spec.
std::string synth_eval(const CellSpec& spec) {
  g_synth_calls.fetch_add(1);
  const double a = spec.param_num("a", 0.0);
  const double b = spec.param_num("b", 0.0);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"sum\":%.10g,\"prod\":%.10g}", a + b,
                a * b);
  return buf;
}

CellSpec synth_cell(double a, double b) {
  CellSpec cell("synth");
  cell.set("a", a).set("b", b);
  return cell;
}

std::string temp_journal(const std::string& name) {
  return testing::TempDir() + "campaign_" + name + ".jsonl";
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_cell_evaluator("synth", synth_eval);
    CellCache::instance().clear();
    g_synth_calls.store(0);
  }
  void TearDown() override {
    CellCache::instance().clear();
    set_parallel_threads(0);
    obs::install_null();
  }
};

TEST_F(CampaignTest, CanonicalJsonIsSortedAndFixedFormat) {
  CellSpec cell("gain");
  // Insertion order must not matter: params are map-sorted.
  cell.set("trials", std::size_t{150});
  cell.set("antennas", std::size_t{8});
  cell.set("depth_m", 0.05);
  EXPECT_EQ(cell.canonical_json(),
            "{\"kind\":\"gain\",\"params\":{\"antennas\":\"8\","
            "\"depth_m\":\"0.05\",\"trials\":\"150\"}}");

  CellSpec reordered("gain");
  reordered.set("depth_m", 0.05);
  reordered.set("antennas", std::size_t{8});
  reordered.set("trials", std::size_t{150});
  EXPECT_EQ(cell.content_hash(), reordered.content_hash());
}

TEST_F(CampaignTest, ParamNumParsesTheWholeValueOrThrows) {
  CellSpec cell("synth");
  cell.set("x", 1.5).set("n", std::size_t{42}).set("tail", "1.5x").set(
      "word", "abc");
  EXPECT_EQ(cell.param_num("x", 0.0), 1.5);
  EXPECT_EQ(cell.param_num("n", 0.0), 42.0);
  EXPECT_EQ(cell.param_num("absent", 7.0), 7.0) << "absent key: fallback";
  // Present but not a number: a loud error, not 1.5 or 0.
  EXPECT_THROW(cell.param_num("tail", 0.0), std::invalid_argument);
  EXPECT_THROW(cell.param_num("word", 0.0), std::invalid_argument);
  try {
    cell.param_num("tail", 0.0);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("synth"), std::string::npos) << what;
    EXPECT_NE(what.find("'tail'"), std::string::npos) << what;
  }
}

TEST_F(CampaignTest, ContentHashSeparatesKindAndParams) {
  const CellSpec a = synth_cell(1.0, 2.0);
  const CellSpec b = synth_cell(1.0, 3.0);
  CellSpec c = synth_cell(1.0, 2.0);
  c.kind = "other";
  EXPECT_NE(a.content_hash(), b.content_hash());
  EXPECT_NE(a.content_hash(), c.content_hash());
  EXPECT_EQ(a.content_hash(), synth_cell(1.0, 2.0).content_hash());
}

TEST_F(CampaignTest, UnknownKindThrowsBeforeAnyWork) {
  CampaignSpec spec;
  spec.name = "bad";
  spec.cells.push_back(synth_cell(1.0, 2.0));
  spec.cells.emplace_back("no_such_kind");
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);
  EXPECT_EQ(g_synth_calls.load(), 0) << "must throw before evaluating cells";
}

TEST_F(CampaignTest, ResultThatIsNotOneObjectThrowsAndIsNeverJournaled) {
  // The loader trusts only one JSON object per journal line, so a result
  // that is not one would be journaled, rejected on every resume and
  // recomputed forever, growing the journal by a record per run.
  register_cell_evaluator("scalar", [](const CellSpec&) {
    return std::string("42");
  });
  register_cell_evaluator("two_lines", [](const CellSpec&) {
    return std::string("{\"a\":1}\n{\"b\":2}");
  });
  for (const char* kind : {"scalar", "two_lines"}) {
    CampaignSpec spec;
    spec.name = kind;
    spec.cells = {synth_cell(1.0, 2.0), CellSpec(kind)};
    const std::string path = temp_journal(std::string("bad_") + kind);
    std::remove(path.c_str());
    set_parallel_threads(1);
    std::size_t journal_bytes = 0;
    for (int run = 0; run < 3; ++run) {
      try {
        run_campaign(spec, {path, false});
        ADD_FAILURE() << kind << ": run " << run << " did not throw";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(kind), std::string::npos) << what;
        EXPECT_NE(what.find(hash_hex(spec.cells[1].content_hash())),
                  std::string::npos)
            << what;
      }
      const std::string journal = read_file(path);
      if (run == 0) journal_bytes = journal.size();
      EXPECT_EQ(journal.size(), journal_bytes)
          << kind << ": the journal grew on run " << run;
      EXPECT_EQ(journal.find(kind), std::string::npos)
          << kind << ": the malformed result was journaled";
    }
    EXPECT_EQ(read_campaign_journal(path).size(), 1u)
        << kind << ": only the good cell is journaled";
    std::remove(path.c_str());
  }
}

TEST_F(CampaignTest, ComputesCellsAndReportsSources) {
  CampaignSpec spec;
  spec.name = "basic";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(report.cells_total, 2u);
  EXPECT_EQ(report.cells_computed, 2u);
  EXPECT_EQ(report.cells_resumed, 0u);
  EXPECT_EQ(report.cache_hits, 0u);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].result_json, "{\"sum\":3,\"prod\":2}");
  EXPECT_EQ(report.outcomes[1].result_json, "{\"sum\":7,\"prod\":12}");
  EXPECT_EQ(report.outcomes[0].source, CellSource::kComputed);
  // Final JSON splices result text verbatim in spec order.
  const std::string json = report.results_json();
  EXPECT_NE(json.find("\"campaign\":\"basic\""), std::string::npos);
  EXPECT_LT(json.find("{\"sum\":3,\"prod\":2}"),
            json.find("{\"sum\":7,\"prod\":12}"));
}

TEST_F(CampaignTest, DuplicateCellsEvaluateOnce) {
  CampaignSpec spec;
  spec.name = "dup";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(5.0, 6.0),
                synth_cell(1.0, 2.0)};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(g_synth_calls.load(), 2);
  EXPECT_EQ(report.cells_computed, 2u);
  EXPECT_EQ(report.cache_hits, 1u);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.outcomes[0].result_json, report.outcomes[2].result_json);
  EXPECT_EQ(report.outcomes[2].source, CellSource::kCache);
}

TEST_F(CampaignTest, MemoCacheSharesCellsAcrossCampaigns) {
  CampaignSpec first;
  first.name = "first";
  first.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  run_campaign(first);
  EXPECT_EQ(g_synth_calls.load(), 2);

  CampaignSpec second;
  second.name = "second";
  second.cells = {synth_cell(3.0, 4.0), synth_cell(9.0, 9.0)};
  const CampaignReport report = run_campaign(second);
  EXPECT_EQ(g_synth_calls.load(), 3) << "shared cell must not recompute";
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cells_computed, 1u);
  EXPECT_EQ(report.outcomes[0].source, CellSource::kCache);
}

TEST_F(CampaignTest, JournalHoldsOneFsyncedRecordPerCell) {
  const std::string path = temp_journal("write");
  std::remove(path.c_str());
  CampaignSpec spec;
  spec.name = "journaled";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  const CampaignReport report = run_campaign(spec, {path, /*fresh=*/true});
  const auto entries = read_campaign_journal(path);
  ASSERT_EQ(entries.size(), 2u);
  // Journal order is evaluation order (not necessarily spec order); match
  // by hash.
  for (const auto& outcome : report.outcomes) {
    bool found = false;
    for (const auto& entry : entries) {
      if (entry.hash == outcome.hash) {
        EXPECT_EQ(entry.result_json, outcome.result_json);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "cell missing from journal";
  }
  std::remove(path.c_str());
}

TEST_F(CampaignTest, JournalSkipsTornAndCorruptLines) {
  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  const std::string path = temp_journal("torn");
  const std::uint64_t hash = CellSpec("synth").content_hash();
  const std::string hex = hash_hex(hash);
  {
    std::ofstream out(path, std::ios::binary);
    // Good record.
    out << "{\"hash\":\"" << hex << "\",\"cell\":{\"kind\":\"synth\","
           "\"params\":{}},\"result\":{\"sum\":1}}\n";
    // Corrupt: unbalanced braces (but newline-terminated).
    out << "{\"hash\":\"" << hex << "\",\"cell\":{\"kind\":\"synth\","
           "\"params\":{}},\"result\":{\"sum\":2}\n";
    // Corrupt: the hash is not the FNV-1a of the cell bytes.
    out << "{\"hash\":\"00000000000000cd\",\"cell\":{\"kind\":\"synth\","
           "\"params\":{}},\"result\":{\"sum\":3}}\n";
    // Torn tail: no trailing newline (SIGKILL mid-write).
    out << "{\"hash\":\"00000000000000ef\",\"cell\":{\"kind\":\"syn";
  }
  const auto entries = read_campaign_journal(path);
  obs::install_null();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].hash, hash);
  EXPECT_EQ(entries[0].result_json, "{\"sum\":1}");
  // Two newline-terminated records were rejected; the torn tail is not
  // corruption.
  EXPECT_EQ(registry.counter("campaign.journal.corrupt").value(), 2u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, CellWithAResultNamedParamResumes) {
  // The cell's canonical JSON holds "result":"x" before the record's own
  // result field; the record must still be read by its fields, not by the
  // first match of a key.
  const std::string path = temp_journal("result_param");
  CampaignSpec spec;
  spec.name = "result_param";
  spec.cells = {CellSpec("synth").set("a", "1").set("result", "x")};
  const std::string cold = run_campaign(spec, {path, true}).results_json();
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_computed, 0u);
  EXPECT_EQ(resumed.results_json(), cold);
  EXPECT_EQ(g_synth_calls.load(), 1);
  EXPECT_EQ(read_file(path).size(), read_file(path).find('\n') + 1)
      << "the journal must keep exactly one record";
  std::remove(path.c_str());
}

TEST_F(CampaignTest, RecordCarryingAnotherCellsHashIsNeverSpliced) {
  // Rewrite the first record's hash to the second cell's: the record now
  // claims to answer a cell it does not hold. It must be rejected (and the
  // first cell recomputed), never served as the second cell's result.
  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  const std::string path = temp_journal("swapped_hash");
  CampaignSpec spec;
  spec.name = "swapped_hash";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  set_parallel_threads(1);  // journal in spec order: the forged record first
  const std::string cold = run_campaign(spec, {path, true}).results_json();
  std::string journal = read_file(path);
  const std::string first = hash_hex(spec.cells[0].content_hash());
  const std::size_t at = journal.find(first);
  ASSERT_LT(at, journal.find('\n'));
  journal.replace(at, first.size(), hash_hex(spec.cells[1].content_hash()));
  write_file(path, journal);

  CellCache::instance().clear();
  g_synth_calls.store(0);
  const CampaignReport resumed = run_campaign(spec, {path, false});
  obs::install_null();
  EXPECT_EQ(resumed.results_json(), cold);
  EXPECT_EQ(resumed.cells_computed, 1u);
  EXPECT_EQ(resumed.outcomes[0].source, CellSource::kComputed);
  EXPECT_EQ(resumed.outcomes[1].source, CellSource::kJournal);
  EXPECT_EQ(g_synth_calls.load(), 1);
  EXPECT_EQ(registry.counter("campaign.journal.corrupt").value(), 1u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, TruncatedOrFlippedJournalsNeverChangeResults) {
  // A real three-record journal, one record for a cell with a param named
  // "result", resumed after (a) truncation at every byte offset and (b) a
  // single-byte flip at every offset of each record's "hash" and "cell"
  // fields. Every resume must reproduce the cold results byte for byte.
  // Flips inside "result" are out of reach of the hash(cell) check: catching
  // them needs a per-record checksum, which changes the journal format.
  const std::string path = temp_journal("fuzz");
  CampaignSpec spec;
  spec.name = "fuzz";
  spec.cells = {synth_cell(1.0, 2.0),
                CellSpec("synth").set("a", "1").set("result", "x"),
                synth_cell(5.0, 6.0)};
  const std::string cold = run_campaign(spec, {path, true}).results_json();
  const std::string journal = read_file(path);
  const auto resumes_to_cold = [&](const std::string& bytes) {
    write_file(path, bytes);
    CellCache::instance().clear();
    return run_campaign(spec, {path, false}).results_json() == cold;
  };

  for (std::size_t cut = 0; cut <= journal.size(); ++cut) {
    EXPECT_TRUE(resumes_to_cold(journal.substr(0, cut))) << "cut " << cut;
  }

  std::size_t flips = 0;
  for (std::size_t line = 0; line < journal.size();
       line = journal.find('\n', line) + 1) {
    const std::string_view record(journal.data() + line,
                                  journal.find('\n', line) - line);
    const JsonValue cell = json_parse(record).value().find("cell").value();
    // From the "hash" key through the end of the cell object.
    const std::size_t end =
        static_cast<std::size_t>(cell.raw().data() - journal.data()) +
        cell.raw().size();
    for (std::size_t at = line + 1; at < end; ++at) {
      for (const char mask : {'\x01', '\x20', '\x80'}) {
        std::string flipped = journal;
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        EXPECT_TRUE(resumes_to_cold(flipped))
            << "flip 0x" << std::hex << int(static_cast<unsigned char>(mask))
            << std::dec << " at byte " << at;
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 3u * 3u * 40u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, MissingJournalReadsEmpty) {
  EXPECT_TRUE(read_campaign_journal(temp_journal("nonexistent")).empty());
}

TEST_F(CampaignTest, ResumeReplaysJournalWithoutRecomputing) {
  const std::string path = temp_journal("resume");
  CampaignSpec spec;
  spec.name = "resumable";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(5.0, 6.0)};
  const std::string full = run_campaign(spec, {path, true}).results_json();
  EXPECT_EQ(g_synth_calls.load(), 3);

  // A resumed run in a fresh process: empty memo cache, journal on disk.
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(g_synth_calls.load(), 3) << "resume must not recompute";
  EXPECT_EQ(resumed.cells_resumed, 3u);
  EXPECT_EQ(resumed.cells_computed, 0u);
  EXPECT_EQ(resumed.outcomes[0].source, CellSource::kJournal);
  EXPECT_EQ(resumed.results_json(), full) << "resume must be byte-identical";
  std::remove(path.c_str());
}

TEST_F(CampaignTest, KilledRunResumesByteIdentical) {
  // Simulate a SIGKILL mid-campaign: keep the first journal record intact,
  // tear the second mid-line, then resume at a different thread count.
  const std::string path = temp_journal("killed");
  CampaignSpec spec;
  spec.name = "killable";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(5.0, 6.0)};
  set_parallel_threads(1);
  const std::string uninterrupted = run_campaign(spec, {path, true}).results_json();

  const std::string journal = read_file(path);
  const std::size_t first_nl = journal.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << journal.substr(0, first_nl + 1);
    out << journal.substr(first_nl + 1, 17);  // torn second record
  }

  CellCache::instance().clear();
  g_synth_calls.store(0);
  set_parallel_threads(8);
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_computed, 2u);
  EXPECT_EQ(g_synth_calls.load(), 2);
  EXPECT_EQ(resumed.results_json(), uninterrupted)
      << "kill-and-resume must reproduce the uninterrupted bytes";
  // The repaired journal is again a complete checkpoint.
  EXPECT_EQ(read_campaign_journal(path).size(), 3u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, ResultsInvariantAcrossThreadCounts) {
  CampaignSpec spec;
  spec.name = "threads";
  for (double a = 0.0; a < 6.0; a += 1.0) {
    spec.cells.push_back(synth_cell(a, 2.0 * a + 1.0));
  }
  set_parallel_threads(1);
  const std::string baseline = run_campaign(spec).results_json();
  for (std::size_t threads : {2u, 8u}) {
    CellCache::instance().clear();
    set_parallel_threads(threads);
    EXPECT_EQ(run_campaign(spec).results_json(), baseline)
        << "thread count " << threads;
  }
}

TEST_F(CampaignTest, FreshOptionTruncatesJournal) {
  const std::string path = temp_journal("fresh");
  CampaignSpec spec;
  spec.name = "fresh";
  spec.cells = {synth_cell(1.0, 2.0)};
  run_campaign(spec, {path, true});
  CellCache::instance().clear();
  g_synth_calls.store(0);
  const CampaignReport report = run_campaign(spec, {path, /*fresh=*/true});
  EXPECT_EQ(report.cells_resumed, 0u);
  EXPECT_EQ(report.cells_computed, 1u);
  EXPECT_EQ(g_synth_calls.load(), 1);
  EXPECT_EQ(read_campaign_journal(path).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, ObsCountersSurfaceCacheAndResumeTraffic) {
  obs::MetricsRegistry registry;
  obs::install({&registry, nullptr});
  const std::string path = temp_journal("metrics");
  CampaignSpec spec;
  spec.name = "metered";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0),
                synth_cell(1.0, 2.0)};  // one duplicate -> one cache hit
  run_campaign(spec, {path, true});
  CellCache::instance().clear();
  run_campaign(spec, {path, false});  // all three resumed
  obs::install_null();

  EXPECT_EQ(registry.counter("campaign.cells.total").value(), 6u);
  EXPECT_EQ(registry.counter("campaign.cells.computed").value(), 2u);
  EXPECT_EQ(registry.counter("campaign.cells.resumed").value(), 3u);
  EXPECT_EQ(registry.counter("campaign.cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("campaign.cache.misses").value(), 2u);
  const std::string snapshot = registry.snapshot_json();
  EXPECT_NE(snapshot.find("campaign.cells.resumed"), std::string::npos);
  EXPECT_NE(snapshot.find("campaign.cell.seconds"), std::string::npos)
      << "per-cell latency histogram missing from snapshot";
  std::remove(path.c_str());
}

TEST_F(CampaignTest, Fig9AndFig13ShareGainAnchorCells) {
  const CampaignSpec fig9 = fig9_campaign(10);
  const CampaignSpec fig13 = fig13_campaign(10, 2);
  ASSERT_EQ(fig9.cells.size(), 10u);
  // Fig. 13 carries the Fig. 9 water-tank anchors at N=1 and N=8: the spec
  // objects hash identically, so the memo cache evaluates them once.
  std::size_t shared = 0;
  for (const auto& a : fig9.cells) {
    for (const auto& b : fig13.cells) {
      if (a.content_hash() == b.content_hash()) ++shared;
    }
  }
  EXPECT_EQ(shared, 2u);
  // Every built-in campaign names only registered evaluator kinds.
  register_builtin_cell_evaluators();
  for (const auto* spec : {&fig9, &fig13}) {
    for (const auto& cell : spec->cells) {
      EXPECT_TRUE(has_cell_evaluator(cell.kind)) << cell.kind;
    }
  }
  for (const auto& cell : x13_campaign(2).cells) {
    EXPECT_TRUE(has_cell_evaluator(cell.kind)) << cell.kind;
  }
}

TEST_F(CampaignTest, BuiltinGainCellIsDeterministicAcrossThreads) {
  register_builtin_cell_evaluators();
  CampaignSpec spec;
  spec.name = "gain_smoke";
  spec.cells.push_back(fig9_campaign(/*gain_trials=*/4).cells[0]);
  set_parallel_threads(1);
  const std::string one = run_campaign(spec).results_json();
  CellCache::instance().clear();
  set_parallel_threads(8);
  const std::string eight = run_campaign(spec).results_json();
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"p50\":"), std::string::npos);
}

TEST_F(CampaignTest, FullyResumedRunLeavesTheJournalUntouched) {
  // A resume with nothing to compute never opens the journal for writing:
  // even a torn tail stays in place until a later run appends a record.
  const std::string path = temp_journal("untouched");
  CampaignSpec spec;
  spec.name = "untouched";
  spec.cells = {synth_cell(1.0, 2.0), synth_cell(3.0, 4.0)};
  const std::string reference = run_campaign(spec, {path, true}).results_json();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"hash\":\"fe";
  }
  const std::string before = read_file(path);
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 2u);
  EXPECT_EQ(resumed.results_json(), reference);
  EXPECT_EQ(read_file(path), before);

  // The first append cuts the torn tail away before writing its record.
  CampaignSpec grown = spec;
  grown.cells.push_back(synth_cell(5.0, 6.0));
  CellCache::instance().clear();
  EXPECT_EQ(run_campaign(grown, {path, false}).cells_computed, 1u);
  const std::string clean = before.substr(0, before.rfind('\n') + 1);
  const std::string after = read_file(path);
  EXPECT_EQ(after.substr(0, clean.size()), clean);
  EXPECT_EQ(after.find("fe{"), std::string::npos) << "torn tail glued on";
  EXPECT_EQ(read_campaign_journal(path).size(), 3u);
  std::remove(path.c_str());
}

// --- Journal durability and byte fidelity ----------------------------------

TEST_F(CampaignTest, JournalAppendToUnwritableFileThrows) {
  // A cell must never count as journaled when the line did not land: a
  // short fwrite (here: the stream is open read-only) has to surface as an
  // exception, not a silent "durable" success.
  const std::string path = temp_journal("readonly");
  { std::ofstream out(path, std::ios::binary); }
  std::FILE* readonly = std::fopen(path.c_str(), "rb");
  ASSERT_NE(readonly, nullptr);
  const CellSpec cell = synth_cell(1.0, 2.0);
  EXPECT_THROW(detail::append_journal_record(readonly, cell,
                                             cell.content_hash(), "{}"),
               std::runtime_error);
  std::fclose(readonly);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, RunSurfacesJournalFlushFailures) {
  // /dev/full accepts the fopen and fails at flush time (ENOSPC) — the
  // run must throw instead of reporting cells whose journal lines never
  // hit the disk. fresh=true skips the resume read (/dev/full reads as an
  // endless stream of zeros).
  std::FILE* probe = std::fopen("/dev/full", "we");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full unavailable";
  std::fclose(probe);
  set_parallel_threads(1);
  CampaignSpec spec;
  spec.name = "enospc";
  spec.cells = {synth_cell(41.0, 1.0)};
  EXPECT_THROW(run_campaign(spec, {"/dev/full", /*fresh=*/true}),
               std::runtime_error);
}

TEST_F(CampaignTest, JournalRoundTripsCarriageReturnBytes) {
  // The reader opens in binary mode; a text-mode reader could eat \r
  // bytes and desynchronize the resume offsets from the on-disk tail.
  register_cell_evaluator("crlf", [](const CellSpec&) {
    return std::string("{\"s\":\"a\rb\",\"n\":1}");
  });
  CellSpec cell("crlf");
  cell.set("seed", std::size_t{1});
  CampaignSpec spec;
  spec.name = "crlf";
  spec.cells = {cell};
  const std::string path = temp_journal("crlf");
  const std::string reference = run_campaign(spec, {path, true}).results_json();

  const auto entries = read_campaign_journal(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(entries[0].result_json.find('\r'), std::string::npos)
      << "raw \\r bytes must round-trip through the journal";
  EXPECT_EQ(entries[0].result_json, "{\"s\":\"a\rb\",\"n\":1}");

  // A torn tail right after the \r-bearing record must truncate at the
  // correct byte offset: resume replays the record, recomputes nothing,
  // and the output stays byte-identical.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"hash\":\"fe";
  }
  CellCache::instance().clear();
  const CampaignReport resumed = run_campaign(spec, {path, false});
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_computed, 0u);
  EXPECT_EQ(resumed.results_json(), reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivnet
