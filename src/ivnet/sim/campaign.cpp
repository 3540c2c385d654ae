#include "ivnet/sim/campaign.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <stdexcept>
#include <system_error>
#include <unordered_map>
#include <unordered_set>

#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/experiment.hpp"

namespace ivnet {
namespace {

std::string format_param(double value) {
  JsonWriter w;
  w.value(value);  // the writer's shortest-round-trip format — same
                   // formatter as every result
  return w.str();
}

// --- Evaluator registry --------------------------------------------------

struct EvaluatorRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, CellEvaluator> evaluators;

  static EvaluatorRegistry& instance() {
    static EvaluatorRegistry registry;
    return registry;
  }
};

CellEvaluator find_evaluator(const std::string& kind) {
  auto& reg = EvaluatorRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.evaluators.find(kind);
  if (it == reg.evaluators.end()) return nullptr;
  return it->second;
}

// --- Journal -------------------------------------------------------------

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// One journal line as a trusted record, or nullopt. A record is trusted
/// only when the line is one JSON object whose "hash" is the 16-hex-digit
/// FNV-1a 64 of its "cell" object's bytes (the cell's canonical_json(),
/// verbatim) and whose "result" is an object, which is spliced out
/// verbatim. Shard metadata fields are optional. `members` is scratch
/// space, reused across records.
std::optional<JournalEntry> parse_journal_record(
    std::string_view line, std::vector<JsonMember>& members) {
  const std::optional<JsonValue> record = json_parse(line, &members);
  if (!record || record->kind() != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  std::optional<JsonValue> hash, cell, result;
  JournalEntry entry{};
  for (const JsonMember& m : members) {
    if (m.key == "hash") hash = m.value;
    if (m.key == "cell") cell = m.value;
    if (m.key == "result") result = m.value;
    if (m.key == "shard") {
      entry.shard = m.value.uint64().value_or(JournalEntry::kNoShard);
    }
    if (m.key == "stolen") entry.stolen = m.value.number().value_or(0.0) != 0;
    if (m.key == "t_s") entry.seconds = m.value.number().value_or(0.0);
  }
  if (!hash || !cell || !result ||
      hash->kind() != JsonValue::Kind::kString ||
      cell->kind() != JsonValue::Kind::kObject ||
      result->kind() != JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  // 16 hex digits between the quotes, read whole, equal to the cell's hash.
  const std::string_view hex = hash->raw().substr(1, hash->raw().size() - 2);
  entry.hash = fnv1a64(cell->raw());
  std::uint64_t stored = 0;
  if (hex.size() != 16 ||
      std::from_chars(hex.data(), hex.data() + 16, stored, 16).ptr !=
          hex.data() + 16 ||
      stored != entry.hash) {
    return std::nullopt;
  }
  entry.result_json = std::string(result->raw());
  return entry;
}

/// A journal as read from disk: its trusted records, plus the length of its
/// newline-terminated prefix — where the next append has to start.
struct LoadedJournal {
  std::vector<JournalEntry> entries;
  std::size_t clean_bytes = 0;
};

/// The one journal reader. Every newline-terminated line must parse as a
/// trusted record (parse_journal_record); the others are counted as
/// `campaign.journal.corrupt` and their cells recomputed. A newline-less
/// tail is a torn append, not corruption: skipped without counting.
/// Missing file => empty. Binary mode, so a result text carrying \r bytes
/// cannot shift the byte offsets the writer later truncates to.
LoadedJournal load_journal(const std::string& path) {
  LoadedJournal journal;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return journal;
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::vector<JsonMember> members;
  std::size_t corrupt = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail: no newline, skip
    const std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    journal.clean_bytes = pos;
    if (std::optional<JournalEntry> entry =
            parse_journal_record(line, members)) {
      journal.entries.push_back(std::move(*entry));
    } else {
      ++corrupt;
    }
  }
  if (corrupt > 0) obs::count("campaign.journal.corrupt", corrupt);
  return journal;
}

/// Serialized appender for one journal. The file opens on the first append
/// only, so a run resolved entirely from disk never touches it. Opening
/// cuts the file back to `keep_bytes`, the newline-terminated prefix the
/// loader saw (0 = start fresh): a SIGKILL mid-append leaves a torn,
/// newline-less tail, and appending onto it would glue the two lines into
/// one corrupt record, losing BOTH cells. That cut assumes one writer per
/// journal, as the shard layout and the plan store already require. A
/// shard writer stamps each record with its shard metadata. Every record is flushed AND fsync'd before
/// append() returns: once a caller observes a cell as journaled, a crash
/// cannot un-journal it.
class JournalWriter {
 public:
  JournalWriter(std::string path, std::size_t keep_bytes,
                std::size_t shard = JournalEntry::kNoShard,
                std::size_t n_shards = 1)
      : path_(std::move(path)),
        keep_bytes_(keep_bytes),
        shard_(shard),
        n_shards_(n_shards) {}
  ~JournalWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append(const CellOutcome& cell, double seconds = 0.0) {
    if (path_.empty()) return;
    std::string extras;
    if (shard_ != JournalEntry::kNoShard) {
      const bool stolen = cell.hash % n_shards_ != shard_;
      extras = "\"shard\":" + std::to_string(shard_) +
               ",\"stolen\":" + (stolen ? "1" : "0") +
               ",\"t_s\":" + format_param(seconds) + ",";
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) {
      if (keep_bytes_ > 0) {
        (void)::truncate(path_.c_str(), static_cast<off_t>(keep_bytes_));
      }
      file_ = std::fopen(path_.c_str(), keep_bytes_ > 0 ? "a" : "w");
      if (file_ == nullptr) {
        throw std::runtime_error("campaign: cannot open journal " + path_);
      }
    }
    detail::append_journal_record(file_, cell.spec, cell.hash,
                                  cell.result_json, extras);
  }

 private:
  std::string path_;
  std::size_t keep_bytes_;
  std::size_t shard_;
  std::size_t n_shards_;
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

// --- Cell resolution -----------------------------------------------------
// Every entry point resolves a cell journal -> memo cache -> compute, and
// journals a result before the cache can hand it out. The two helpers
// below are the only place that order is written down.

/// What a spec-order pass left for the compute step.
struct Unresolved {
  /// First instance of each unresolved hash, in spec order.
  std::vector<std::size_t> first;
  /// Later instances of those hashes, paired with their first instance.
  std::vector<std::pair<std::size_t, std::size_t>> repeats;
};

/// (a) The spec-order pass. Fills `report`'s name, total and outcomes, and
/// resolves each cell from `entries` (the first record of a hash wins).
/// With a `journal`, the pass also consults the memo cache: journal hits
/// are memoized, and cache hits are appended to `journal`, so a journal
/// alone replays its campaign. Without one the pass reads the journal
/// entries only. Serial and in spec order, so resumed and cache-hit counts
/// are the same at any thread count.
Unresolved resolve_in_spec_order(const CampaignSpec& spec,
                                 const std::vector<JournalEntry>& entries,
                                 JournalWriter* journal,
                                 CampaignReport& report) {
  report.name = spec.name;
  report.cells_total = spec.cells.size();
  report.outcomes.resize(spec.cells.size());
  std::unordered_map<std::uint64_t, const std::string*> journaled;
  for (const JournalEntry& entry : entries) {
    journaled.emplace(entry.hash, &entry.result_json);
  }
  CellCache& cache = CellCache::instance();
  Unresolved todo;
  std::unordered_map<std::uint64_t, std::size_t> scheduled;  // hash -> first
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    CellOutcome& out = report.outcomes[i];
    out.spec = spec.cells[i];
    out.hash = spec.cells[i].content_hash();
    if (const auto it = journaled.find(out.hash); it != journaled.end()) {
      out.result_json = *it->second;
      out.source = CellSource::kJournal;
      ++report.cells_resumed;
      if (journal != nullptr) cache.insert(out.hash, out.result_json);
      continue;
    }
    if (journal != nullptr && cache.lookup(out.hash, &out.result_json)) {
      out.source = CellSource::kCache;
      ++report.cache_hits;
      journal->append(out);
      continue;
    }
    const auto [it, first] = scheduled.emplace(out.hash, i);
    if (first) {
      todo.first.push_back(i);
    } else {
      todo.repeats.emplace_back(i, it->second);
    }
  }
  return todo;
}

/// Throws std::runtime_error unless an evaluator's result is one JSON
/// object on one line: the journal writes it into a single record line,
/// and the loader trusts only an object there, so anything else would be
/// journaled, rejected on every resume and recomputed forever.
void check_result(const CellOutcome& out) {
  const std::optional<JsonValue> value = json_parse(out.result_json);
  const char* problem = nullptr;
  if (!value) {
    problem = "is not one JSON value";
  } else if (value->kind() != JsonValue::Kind::kObject) {
    problem = "is not a JSON object";
  } else if (out.result_json.find('\n') != std::string::npos) {
    problem = "spans more than one line";
  }
  if (problem != nullptr) {
    throw std::runtime_error("campaign: the '" + out.spec.kind +
                             "' result for cell " + hash_hex(out.hash) + " " +
                             problem);
  }
}

/// (b) The compute step: evaluate outcomes[i] for every i in `cells`, one
/// cell per pool chunk — cells are coarse (whole Monte-Carlo sweeps), so
/// parallel_for's fine grain would serialize small campaigns — or serially
/// for at most one cell, one thread, or from inside a pool worker. Every
/// evaluator is looked up before any work, so an unknown kind throws
/// std::invalid_argument before anything is computed. A cell whose `claim`
/// fails (another worker has it) is skipped. Each result is journaled
/// BEFORE it enters the memo cache: once any code path can observe it, its
/// journal line is already durable. A result check_result rejects is
/// neither journaled nor cached. Exceptions (an evaluator throwing or
/// returning a malformed result, a journal append that cannot be made
/// durable) cannot unwind through the pool: the first one is captured, the
/// remaining cells are skipped, and it is rethrown. Returns each cell's
/// compute seconds, negative if skipped.
std::vector<double> compute_cells(
    std::vector<CellOutcome>& outcomes, const std::vector<std::size_t>& cells,
    JournalWriter& journal,
    const std::function<bool(std::uint64_t)>& claim = nullptr) {
  std::vector<CellEvaluator> evaluators(cells.size());
  for (std::size_t j = 0; j < cells.size(); ++j) {
    const std::string& kind = outcomes[cells[j]].spec.kind;
    evaluators[j] = find_evaluator(kind);
    if (!evaluators[j]) {
      throw std::invalid_argument("campaign: no evaluator for kind '" + kind +
                                  "'");
    }
  }
  std::vector<double> seconds(cells.size(), -1.0);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto compute = [&](std::size_t j) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error) return;
    }
    try {
      CellOutcome& out = outcomes[cells[j]];
      if (claim && !claim(out.hash)) return;
      const auto t0 = std::chrono::steady_clock::now();
      out.result_json = evaluators[j](out.spec);
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      check_result(out);
      out.source = CellSource::kComputed;
      journal.append(out, dt);
      CellCache::instance().insert(out.hash, out.result_json);
      seconds[j] = dt;
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  if (cells.size() <= 1 || parallel_thread_count() <= 1 ||
      detail::in_pool_worker()) {
    for (std::size_t j = 0; j < cells.size(); ++j) compute(j);
  } else {
    detail::pool_run(cells.size(), compute);
  }
  if (first_error) std::rethrow_exception(first_error);
  return seconds;
}

/// A single-journal campaign: (a) then (b) on `options.journal_path`.
/// Emits no metrics — run_campaign does, resolve_cell does not.
struct SingleRun {
  CampaignReport report;
  std::vector<double> seconds;  ///< compute seconds of each computed cell
};

SingleRun run_single(const CampaignSpec& spec, const CampaignOptions& options) {
  register_builtin_cell_evaluators();
  LoadedJournal loaded;
  if (!options.journal_path.empty() && !options.fresh) {
    loaded = load_journal(options.journal_path);
  }
  JournalWriter journal(options.journal_path, loaded.clean_bytes);
  SingleRun run;
  CampaignReport& report = run.report;
  const Unresolved todo =
      resolve_in_spec_order(spec, loaded.entries, &journal, report);
  run.seconds = compute_cells(report.outcomes, todo.first, journal);
  report.cells_computed = todo.first.size();
  for (const auto& [i, first] : todo.repeats) {
    report.outcomes[i].result_json = report.outcomes[first].result_json;
    report.outcomes[i].source = CellSource::kCache;
  }
  report.cache_hits += todo.repeats.size();
  return run;
}

}  // namespace

namespace detail {

void append_journal_record(std::FILE* file, const CellSpec& spec,
                           std::uint64_t hash, const std::string& result_json,
                           const std::string& extras) {
  // `result_json` is spliced in verbatim so a replay reproduces the
  // evaluator's bytes exactly; the reader takes it back out by its span.
  // `extras` (shard metadata) sits between the hash and cell fields.
  const std::string line = "{\"hash\":\"" + hash_hex(hash) + "\"," + extras +
                           "\"cell\":" + spec.canonical_json() +
                           ",\"result\":" + result_json + "}\n";
  // Every step of the durability chain is checked: a short fwrite, a failed
  // fflush, or a failed fsync (ENOSPC, EIO, a read-only fd) means the
  // "durably journaled before observed" contract cannot be met, so the
  // caller must not report the cell as computed.
  const auto fail = [](const char* step) {
    throw std::runtime_error(std::string("campaign: journal ") + step +
                             " failed: " + std::strerror(errno));
  };
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size()) {
    fail("write");
  }
  if (std::fflush(file) != 0) fail("flush");
  if (fsync(fileno(file)) != 0) fail("fsync");
}

}  // namespace detail

// --- CellSpec ------------------------------------------------------------

CellSpec& CellSpec::set(const std::string& key, const std::string& value) {
  params[key] = value;
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, const char* value) {
  params[key] = value;
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, double value) {
  params[key] = format_param(value);
  return *this;
}

CellSpec& CellSpec::set(const std::string& key, std::size_t value) {
  params[key] = std::to_string(value);
  return *this;
}

std::string CellSpec::param(const std::string& key,
                            const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

double CellSpec::param_num(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  // The whole value in the JSON number grammar, the writer's format:
  // locale-independent, and trailing garbage is an error, not ignored.
  if (const std::optional<double> value = json_number(it->second)) {
    return *value;
  }
  throw std::invalid_argument("campaign: " + kind + " cell parameter '" +
                              key + "' is not a number: '" + it->second +
                              "'");
}

std::string CellSpec::canonical_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("kind", kind);
  w.key("params").begin_object();
  for (const auto& [key, value] : params) w.field(key, value);
  w.end_object();
  w.end_object();
  return w.str();
}

std::uint64_t CellSpec::content_hash() const {
  return fnv1a64(canonical_json());
}

// --- Registry / cache ----------------------------------------------------

void register_cell_evaluator(const std::string& kind,
                             CellEvaluator evaluator) {
  auto& reg = EvaluatorRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.evaluators[kind] = std::move(evaluator);
}

bool has_cell_evaluator(const std::string& kind) {
  return find_evaluator(kind) != nullptr;
}

CellCache& CellCache::instance() {
  static CellCache cache;
  return cache;
}

bool CellCache::lookup(std::uint64_t hash, std::string* result_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = results_.find(hash);
  if (it == results_.end()) return false;
  if (result_json != nullptr) *result_json = it->second;
  return true;
}

void CellCache::insert(std::uint64_t hash, std::string result_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  results_.emplace(hash, std::move(result_json));
}

void CellCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  results_.clear();
}

std::vector<JournalEntry> read_campaign_journal(const std::string& path) {
  return load_journal(path).entries;
}

// --- Campaign runner -----------------------------------------------------

std::string CampaignReport::results_json() const {
  std::string out = "{\"campaign\":\"";
  out += json_escape(name);
  out += "\",\"cells\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) out += ',';
    const CellOutcome& o = outcomes[i];
    out += "{\"cell\":";
    out += o.spec.canonical_json();
    out += ",\"hash\":\"" + hash_hex(o.hash) + "\",\"result\":";
    out += o.result_json;
    out += '}';
  }
  out += "]}";
  return out;
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  SingleRun run = run_single(spec, options);
  const CampaignReport& report = run.report;
  obs::count("campaign.cells.total", report.cells_total);
  obs::count("campaign.cells.resumed", report.cells_resumed);
  obs::count("campaign.cache.misses", report.cells_computed);
  for (const double dt : run.seconds) obs::observe("campaign.cell.seconds", dt);
  obs::count("campaign.cells.computed", report.cells_computed);
  obs::count("campaign.cache.hits", report.cache_hits);
  return std::move(run.report);
}

CellOutcome resolve_cell(const CellSpec& spec,
                         const std::string& journal_path) {
  // One resolver at a time: concurrent service workers re-planning the same
  // scenario must not interleave journal appends or double-compute a cell.
  static std::mutex resolve_mutex;
  std::lock_guard<std::mutex> lock(resolve_mutex);
  CampaignSpec one;
  one.cells.push_back(spec);
  return std::move(run_single(one, {journal_path}).report.outcomes.front());
}

// --- Distributed campaigns -----------------------------------------------

namespace {

/// Exactly-once arbitration for one run generation: an append-only file of
/// `<16-hex-hash> <shard>` lines, serialized by an fcntl whole-file write
/// lock (cross-process) nested inside a process-wide mutex (fcntl record
/// locks do not exclude threads of the same process). A worker may only
/// evaluate a cell after winning its claim; losing means some other worker
/// is computing (or has computed) it. Claims are NOT durable state — the
/// journals are — so the coordinator truncates this file at the start of
/// every generation and a claimed-but-never-journaled cell (its claimant
/// was SIGKILLed) is simply recomputed on the next resume.
class ClaimsFile {
 public:
  explicit ClaimsFile(std::string path) : path_(std::move(path)) {}

  /// True when this worker won the claim on `hash` (nobody held it).
  bool claim(std::uint64_t hash, std::size_t shard) {
    static std::mutex process_mutex;
    std::lock_guard<std::mutex> guard(process_mutex);
    const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      throw std::runtime_error("campaign: cannot open claims file " + path_);
    }
    struct ::flock lock {};
    lock.l_type = F_WRLCK;
    lock.l_whence = SEEK_SET;
    lock.l_start = 0;
    lock.l_len = 0;  // whole file
    while (::fcntl(fd, F_SETLKW, &lock) != 0) {
      if (errno != EINTR) {
        ::close(fd);
        throw std::runtime_error("campaign: claims lock failed on " + path_);
      }
    }
    bool won = false;
    try {
      const std::string content = read_all(fd);
      const std::string hex = hash_hex(hash);
      won = !holds_claim(content, hex);
      if (won) {
        std::string line;
        // A SIGKILL mid-claim leaves a newline-less tail; starting on a
        // fresh line keeps this claim parseable (the torn one stays
        // conservative garbage and its cell falls to the next resume).
        if (!content.empty() && content.back() != '\n') line += '\n';
        line += hex;
        line += ' ';
        line += std::to_string(shard);
        line += '\n';
        append_durable(fd, line);
      }
    } catch (...) {
      ::close(fd);  // releases the fcntl lock
      throw;
    }
    ::close(fd);
    return won;
  }

 private:
  static std::string read_all(int fd) {
    std::string content;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      content.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0) throw std::runtime_error("campaign: claims read failed");
    return content;
  }

  /// True when some line of `content` already claims `hex`.
  static bool holds_claim(const std::string& content, const std::string& hex) {
    std::size_t pos = 0;
    while (pos < content.size()) {
      std::size_t eol = content.find('\n', pos);
      if (eol == std::string::npos) eol = content.size();
      if (eol - pos >= hex.size() &&
          content.compare(pos, hex.size(), hex) == 0) {
        return true;
      }
      pos = eol + 1;
    }
    return false;
  }

  static void append_durable(int fd, const std::string& line) {
    if (::lseek(fd, 0, SEEK_END) < 0) {
      throw std::runtime_error("campaign: claims seek failed");
    }
    std::size_t written = 0;
    while (written < line.size()) {
      const ssize_t n =
          ::write(fd, line.data() + written, line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("campaign: claims write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      throw std::runtime_error("campaign: claims fsync failed");
    }
  }

  std::string path_;
};

}  // namespace

std::string shard_journal_path(const std::string& base, std::size_t shard) {
  return base + ".shard" + std::to_string(shard) + ".jsonl";
}

std::string shard_claims_path(const std::string& base) {
  return base + ".claims";
}

void reset_campaign_claims(const ShardOptions& options) {
  if (options.journal_path.empty()) return;
  std::remove(shard_claims_path(options.journal_path).c_str());
  if (options.fresh) {
    for (std::size_t k = 0; k < options.n_shards; ++k) {
      std::remove(shard_journal_path(options.journal_path, k).c_str());
    }
  }
}

ShardWorkerReport run_campaign_shard(const CampaignSpec& spec,
                                     const ShardOptions& options,
                                     std::size_t shard) {
  if (options.journal_path.empty()) {
    throw std::invalid_argument("campaign: sharded run needs a journal path");
  }
  if (options.n_shards == 0 || shard >= options.n_shards) {
    throw std::invalid_argument("campaign: shard index out of range");
  }
  register_builtin_cell_evaluators();

  // EVERY shard's journal counts: the whole fleet's finished work resumes.
  std::vector<JournalEntry> entries;
  std::size_t own_clean_bytes = 0;
  for (std::size_t k = 0; k < options.n_shards; ++k) {
    LoadedJournal loaded =
        load_journal(shard_journal_path(options.journal_path, k));
    if (k == shard) own_clean_bytes = loaded.clean_bytes;
    for (auto& entry : loaded.entries) entries.push_back(std::move(entry));
  }
  JournalWriter journal(shard_journal_path(options.journal_path, shard),
                        own_clean_bytes, shard, options.n_shards);
  CampaignReport pass;
  const Unresolved todo =
      resolve_in_spec_order(spec, entries, &journal, pass);

  ShardWorkerReport report;
  report.shard = shard;
  std::unordered_set<std::uint64_t> seen;  // a worker counts unique cells
  for (const CellOutcome& out : pass.outcomes) {
    if (!seen.insert(out.hash).second) continue;
    if (out.source == CellSource::kJournal) ++report.cells_resumed;
    if (out.source == CellSource::kCache) ++report.cells_from_cache;
  }

  std::vector<std::size_t> own, others;
  for (const std::size_t i : todo.first) {
    (pass.outcomes[i].hash % options.n_shards == shard ? own : others)
        .push_back(i);
  }
  report.cells_owned = own.size();

  ClaimsFile claims(shard_claims_path(options.journal_path));
  const auto claim = [&](std::uint64_t hash) {
    return claims.claim(hash, shard);
  };
  // Own shard first; only a worker whose backlog has drained starts
  // stealing, so stealing strictly helps stragglers.
  for (const bool stolen : {false, true}) {
    for (const double dt :
         compute_cells(pass.outcomes, stolen ? others : own, journal, claim)) {
      if (dt < 0.0) continue;  // another worker won the claim
      obs::observe("campaign.cell.seconds", dt);
      ++report.cells_computed;
      if (stolen) ++report.cells_stolen;
    }
  }
  if (report.cells_stolen > 0) {
    obs::count("campaign.cells.stolen", report.cells_stolen);
  }
  obs::count("campaign.cells.computed", report.cells_computed);
  obs::count("campaign.cells.resumed", report.cells_resumed);
  obs::count("campaign.cache.hits", report.cells_from_cache);
  return report;
}

ShardMergeReport merge_campaign_shards(const CampaignSpec& spec,
                                       const ShardOptions& options) {
  if (options.journal_path.empty()) {
    throw std::invalid_argument("campaign: merge needs a journal path");
  }
  ShardMergeReport merge;
  std::vector<JournalEntry> entries;
  std::unordered_set<std::uint64_t> merged;  // distinct journaled hashes
  for (std::size_t k = 0; k < options.n_shards; ++k) {
    for (auto& entry :
         load_journal(shard_journal_path(options.journal_path, k)).entries) {
      if (entry.stolen) ++merge.cells_stolen;
      if (entry.seconds > 0.0) {
        const std::size_t writer =
            entry.shard == JournalEntry::kNoShard ? k : entry.shard;
        obs::observe("campaign.shard" + std::to_string(writer) +
                         ".cell.seconds",
                     entry.seconds);
      }
      merged.insert(entry.hash);
      entries.push_back(std::move(entry));
    }
  }
  // Spec order, journals only: when every cell is covered, results_json()
  // is byte-identical to an unsharded run. Whatever the pass leaves
  // unresolved, no shard journaled.
  merge.cells_missing =
      resolve_in_spec_order(spec, entries, nullptr, merge.report)
          .first.size();
  obs::count("campaign.shards", options.n_shards);
  obs::count("campaign.cells.merged", merged.size());
  obs::count("campaign.cells.missing", merge.cells_missing);
  return merge;
}

// --- Built-in evaluators -------------------------------------------------

namespace {

Scenario scenario_from(const CellSpec& cell) {
  const std::string kind = cell.param("scenario", "water_tank");
  if (kind == "air") return air_scenario(cell.param_num("distance_m", 2.0));
  return water_tank_scenario(
      cell.param_num("depth_m", 0.05),
      cell.param_num("standoff_m", calib::kGainSetupStandoffM));
}

TagConfig tag_from(const CellSpec& cell) {
  return cell.param("tag", "std") == "mini" ? miniature_tag() : standard_tag();
}

std::string eval_gain(const CellSpec& cell) {
  const auto scenario = scenario_from(cell);
  const auto tag = tag_from(cell);
  const auto plan = FrequencyPlan::paper_default().truncated(
      static_cast<std::size_t>(cell.param_num("antennas", 8)));
  const auto trials = static_cast<std::size_t>(cell.param_num("trials", 150));
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 9)));
  const auto results = run_gain_trials(scenario, tag, plan, trials, rng);
  const auto cib = summarize_cib(results);
  const auto baseline = summarize_baseline(results);
  JsonWriter w;
  w.begin_object();
  w.field("p10", cib.p10);
  w.field("p50", cib.p50);
  w.field("p90", cib.p90);
  w.field("baseline_p50", baseline.p50);
  w.field("trials", trials);
  w.end_object();
  return w.str();
}

std::string eval_range(const CellSpec& cell) {
  const auto tag = tag_from(cell);
  const auto plan = FrequencyPlan::paper_default().truncated(
      static_cast<std::size_t>(cell.param_num("antennas", 8)));
  const auto trials = static_cast<std::size_t>(cell.param_num("trials", 15));
  const bool water = cell.param("medium", "air") == "water";
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 13)));
  const double max_m =
      water ? max_water_depth(tag, plan, trials, rng,
                              cell.param_num("max_search_m", 0.5))
            : max_air_range(tag, plan, trials, rng,
                            cell.param_num("max_search_m", 100.0));
  JsonWriter w;
  w.begin_object();
  w.field("max_m", max_m);
  w.field("trials", trials);
  w.end_object();
  return w.str();
}

std::string eval_waterfall(const CellSpec& cell) {
  WaterfallConfig config;
  config.snr_points_db = {cell.param_num("snr_db", 30.0)};
  config.trials_per_point =
      static_cast<std::size_t>(cell.param_num("trials", 32));
  config.link.recovery = RecoveryPolicy::retries(
      static_cast<std::size_t>(cell.param_num("retries", 2)));
  // Same seed across SNR cells => same Rng::stream trial sub-streams: the
  // common-random-numbers coupling that keeps the waterfall monotone.
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 13)));
  const auto points = run_ber_waterfall(config, rng);
  const auto& p = points.front();
  JsonWriter w;
  w.begin_object();
  w.field("ber", p.ber);
  w.field("per", p.per);
  w.field("session_success", p.session_success_rate);
  w.field("mean_retries", p.mean_retries);
  w.field("trials", p.trials);
  w.end_object();
  return w.str();
}

std::string eval_matrix(const CellSpec& cell) {
  MatrixConfig config;
  config.media = {{cell.param("medium", "water"),
                   cell.param_num("loss_db", 2.0)}};
  config.snr_points_db = {cell.param_num("snr_db", 30.0)};
  config.antenna_counts = {
      static_cast<std::size_t>(cell.param_num("antennas", 1))};
  config.trials_per_cell =
      static_cast<std::size_t>(cell.param_num("trials", 24));
  config.link.recovery = RecoveryPolicy::retries(
      static_cast<std::size_t>(cell.param_num("retries", 2)));
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 17)));
  const auto cells = run_session_matrix(config, rng);
  const auto& c = cells.front();
  JsonWriter w;
  w.begin_object();
  w.field("success_rate", c.success_rate);
  w.field("mean_retries", c.mean_retries);
  w.field("recovered_by_retry", c.recovered_by_retry);
  w.field("trials", c.trials);
  w.end_object();
  return w.str();
}

std::string eval_depth(const CellSpec& cell) {
  DepthSweepConfig config;
  config.depths_m = {cell.param_num("depth_m", 0.05)};
  config.trials_per_point =
      static_cast<std::size_t>(cell.param_num("trials", 32));
  config.link.num_antennas =
      static_cast<std::size_t>(cell.param_num("antennas", 10));
  config.link.recovery = RecoveryPolicy::retries(
      static_cast<std::size_t>(cell.param_num("retries", 1)));
  Rng rng(static_cast<std::uint64_t>(cell.param_num("seed", 29)));
  const auto points = run_success_vs_depth(config, rng);
  const auto& p = points.front();
  JsonWriter w;
  w.begin_object();
  w.field("loss_db", p.medium_loss_db);
  w.field("success_rate", p.success_rate);
  w.field("mean_retries", p.mean_retries);
  w.end_object();
  return w.str();
}

std::string eval_burst_retry(const CellSpec& cell) {
  ImpairedLinkConfig config;
  config.snr_db = cell.param_num("snr_db", 30.0);
  config.impair.bursts = {
      .rate_hz = cell.param_num("burst_rate_hz", 150.0),
      .mean_duration_s = cell.param_num("burst_duration_s", 5e-4),
      .depth_db = cell.param_num("burst_depth_db", 40.0)};
  config.recovery = RecoveryPolicy::retries(
      static_cast<std::size_t>(cell.param_num("retries", 0)));
  const auto trials = static_cast<std::size_t>(cell.param_num("trials", 200));
  const auto seed = static_cast<std::uint64_t>(cell.param_num("seed", 23));
  std::size_t ok = 0, timeouts = 0;
  double backoff = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng rng = Rng::stream(seed, t);
    const auto report = run_impaired_link_session(config, rng);
    ok += report.success;
    timeouts += report.recovery.timeouts;
    backoff += report.recovery.backoff_total_s;
  }
  JsonWriter w;
  w.begin_object();
  w.field("success", static_cast<double>(ok) / static_cast<double>(trials));
  w.field("timeouts",
          static_cast<double>(timeouts) / static_cast<double>(trials));
  w.field("backoff_ms", 1e3 * backoff / static_cast<double>(trials));
  w.field("trials", trials);
  w.end_object();
  return w.str();
}

}  // namespace

void register_builtin_cell_evaluators() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_cell_evaluator("gain", eval_gain);
    register_cell_evaluator("range", eval_range);
    register_cell_evaluator("waterfall", eval_waterfall);
    register_cell_evaluator("matrix", eval_matrix);
    register_cell_evaluator("depth", eval_depth);
    register_cell_evaluator("burst_retry", eval_burst_retry);
  });
}

// --- Figure campaigns ----------------------------------------------------

namespace {

/// The Fig. 9 water-tank gain cell for `antennas` — the SAME spec (hence
/// hash) wherever it appears, which is what lets Fig. 13's anchors reuse
/// Fig. 9's results through the memo cache.
CellSpec water_gain_cell(std::size_t antennas, std::size_t trials) {
  CellSpec cell("gain");
  cell.set("scenario", "water_tank")
      .set("depth_m", 0.05)
      .set("standoff_m", calib::kGainSetupStandoffM)
      .set("tag", "std")
      .set("antennas", antennas)
      .set("trials", trials)
      .set("seed", std::size_t{9});
  return cell;
}

CellSpec range_cell(const char* tag, const char* medium, std::size_t antennas,
                    std::size_t trials, double max_search_m) {
  CellSpec cell("range");
  cell.set("tag", tag)
      .set("medium", medium)
      .set("antennas", antennas)
      .set("trials", trials)
      .set("max_search_m", max_search_m)
      .set("seed", std::size_t{13});
  return cell;
}

}  // namespace

CampaignSpec fig9_campaign(std::size_t gain_trials) {
  CampaignSpec spec;
  spec.name = "fig9";
  for (std::size_t n = 1; n <= 10; ++n) {
    spec.cells.push_back(water_gain_cell(n, gain_trials));
  }
  return spec;
}

CampaignSpec fig13_campaign(std::size_t gain_trials, std::size_t range_trials) {
  CampaignSpec spec;
  spec.name = "fig13";
  for (std::size_t n = 1; n <= 8; ++n) {
    spec.cells.push_back(range_cell("std", "air", n, range_trials, 80.0));
    spec.cells.push_back(range_cell("mini", "air", n, range_trials, 20.0));
    spec.cells.push_back(range_cell("std", "water", n, range_trials, 0.5));
    spec.cells.push_back(range_cell("mini", "water", n, range_trials, 0.5));
  }
  // Water-tank gain anchors shared verbatim with fig9 (same hash): when
  // both campaigns run in one process, these resolve from the memo cache.
  spec.cells.push_back(water_gain_cell(1, gain_trials));
  spec.cells.push_back(water_gain_cell(8, gain_trials));
  return spec;
}

CampaignSpec x13_campaign(std::size_t trials) {
  CampaignSpec spec;
  spec.name = "x13";
  for (const double snr : {30.0, 24.0, 18.0, 12.0, 8.0, 4.0, 0.0}) {
    CellSpec cell("waterfall");
    cell.set("snr_db", snr)
        .set("trials", trials)
        .set("retries", std::size_t{2})
        .set("seed", std::size_t{13});
    spec.cells.push_back(cell);
  }
  const struct {
    const char* name;
    double loss_db;
  } media[] = {{"water", 2.0}, {"muscle", 6.0}, {"gastric", 9.0}};
  for (const auto& medium : media) {
    for (const double snr : {30.0, 20.0, 10.0, 0.0}) {
      for (const std::size_t antennas : {1u, 3u, 10u}) {
        CellSpec cell("matrix");
        cell.set("medium", medium.name)
            .set("loss_db", medium.loss_db)
            .set("snr_db", snr)
            .set("antennas", antennas)
            .set("trials", trials)
            .set("retries", std::size_t{2})
            .set("seed", std::size_t{17});
        spec.cells.push_back(cell);
      }
    }
  }
  for (const std::size_t retries : {0u, 1u, 2u, 3u}) {
    CellSpec cell("burst_retry");
    cell.set("retries", retries)
        .set("snr_db", 30.0)
        .set("burst_rate_hz", 150.0)
        .set("burst_duration_s", 5e-4)
        .set("burst_depth_db", 40.0)
        .set("trials", std::size_t{200})
        .set("seed", std::size_t{23});
    spec.cells.push_back(cell);
  }
  for (const double depth : {0.01, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15}) {
    CellSpec cell("depth");
    cell.set("depth_m", depth)
        .set("antennas", std::size_t{10})
        .set("retries", std::size_t{1})
        .set("trials", trials)
        .set("seed", std::size_t{29});
    spec.cells.push_back(cell);
  }
  return spec;
}

}  // namespace ivnet
