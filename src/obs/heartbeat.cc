#include "obs/heartbeat.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/hashing.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lbsa::obs {

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

Progress& Progress::global() {
  static Progress* progress = new Progress();  // leaked: process lifetime
  return *progress;
}

void Progress::configure_workers(int n) {
  if (n < 0) n = 0;
  if (n > kProgressMaxWorkers) n = kProgressMaxWorkers;
  for (int i = 0; i < n; ++i) {
    slots_[i].busy.store(0, std::memory_order_relaxed);
  }
  worker_count_.store(static_cast<std::uint32_t>(n),
                      std::memory_order_release);
}

Progress::WorkerSlot* Progress::worker(int i) {
  if (i < 0 || i >= worker_count() || i >= kProgressMaxWorkers) return nullptr;
  return &slots_[i];
}

void Progress::raise(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (cur < value &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void Progress::reset() {
  nodes_total.store(0, std::memory_order_relaxed);
  transitions_total.store(0, std::memory_order_relaxed);
  levels_completed.store(0, std::memory_order_relaxed);
  frontier_size.store(0, std::memory_order_relaxed);
  checkpoint_writes.store(0, std::memory_order_relaxed);
  worker_count_.store(0, std::memory_order_relaxed);
  for (WorkerSlot& slot : slots_) {
    slot.busy.store(0, std::memory_order_relaxed);
    slot.expanded.store(0, std::memory_order_relaxed);
    slot.cas_retries.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// run_id
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_string(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, s.size());
  for (char c : s) {
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

std::string derive_run_id(std::string_view tool, std::string_view task,
                          std::string_view mode, std::uint64_t budget,
                          std::string_view nonce) {
  std::uint64_t h = 0x1b5a0b5eULL;  // arbitrary fixed seed
  h = hash_string(h, tool);
  h = hash_string(h, task);
  h = hash_string(h, mode);
  h = hash_combine(h, budget);
  // Empty nonce folds in nothing: ids minted before the nonce existed (and
  // checkpoints carrying them) keep resolving to the same stream.
  if (!nonce.empty()) h = hash_string(h, nonce);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return std::string(hex);
}

// ---------------------------------------------------------------------------
// HeartbeatSampler
// ---------------------------------------------------------------------------

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Last non-empty line of `text` (without the trailing newline).
std::string_view last_line(std::string_view text) {
  std::size_t end = text.size();
  while (end > 0 && (text[end - 1] == '\n' || text[end - 1] == '\r')) --end;
  if (end == 0) return {};
  std::size_t begin = text.rfind('\n', end - 1);
  begin = begin == std::string_view::npos ? 0 : begin + 1;
  return text.substr(begin, end - begin);
}

}  // namespace

HeartbeatSampler::HeartbeatSampler(HeartbeatOptions options)
    : options_(std::move(options)) {
  if (!options_.clock_ms) options_.clock_ms = steady_now_ms;
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
}

HeartbeatSampler::~HeartbeatSampler() { (void)stop(); }

Status HeartbeatSampler::open() {
  if (options_.path.empty()) {
    return invalid_argument("heartbeat: empty output path");
  }
  if (file_ != nullptr) return Status::ok();
  // Continuation check: an existing stream must belong to the same run.
  {
    std::ifstream in(options_.path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string existing = buffer.str();
      const std::string_view tail = last_line(existing);
      if (!tail.empty()) {
        auto parsed = parse_json(tail);
        if (!parsed.is_ok() || !parsed.value().is_object()) {
          return failed_precondition(
              "heartbeat: '" + options_.path +
              "' exists but its last line is not a heartbeat (refusing to "
              "append a new stream onto it)");
        }
        const JsonValue* run_id = parsed.value().find("run_id");
        const JsonValue* seq = parsed.value().find("seq");
        if (run_id == nullptr || !run_id->is_string() || seq == nullptr ||
            !seq->is_number() || !seq->number_is_integer) {
          return failed_precondition(
              "heartbeat: '" + options_.path +
              "' last line lacks run_id/seq (not a heartbeat stream)");
        }
        if (run_id->string_value != options_.run_id) {
          return failed_precondition(
              "heartbeat: '" + options_.path + "' belongs to run " +
              run_id->string_value + ", not " + options_.run_id +
              " (a stream is appendable only by the same resumed run)");
        }
        next_seq_ = static_cast<std::uint64_t>(seq->int_value) + 1;
      }
    }
  }
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    return internal_error("heartbeat: cannot open '" + options_.path +
                          "' for append");
  }
  start_ms_ = options_.clock_ms();
  set_heartbeat_enabled(true);
  return Status::ok();
}

void HeartbeatSampler::write_tick(bool final) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  const std::uint64_t now = options_.clock_ms();
  const std::uint64_t uptime = now >= start_ms_ ? now - start_ms_ : 0;

  Progress& progress = Progress::global();
  const std::uint64_t nodes =
      progress.nodes_total.load(std::memory_order_relaxed);
  const std::uint64_t transitions =
      progress.transitions_total.load(std::memory_order_relaxed);
  const std::uint64_t levels =
      progress.levels_completed.load(std::memory_order_relaxed);
  const std::uint64_t frontier =
      progress.frontier_size.load(std::memory_order_relaxed);
  const std::uint64_t checkpoints =
      progress.checkpoint_writes.load(std::memory_order_relaxed);

  // Rolling nodes/sec against the oldest sample in the window; the
  // frontier-trend ETA is defined only while the frontier is draining.
  double nodes_per_sec = 0.0;
  bool have_eta = false;
  double eta_s = 0.0;
  if (!window_.empty()) {
    const Sample& oldest = window_.front();
    if (now > oldest.t_ms) {
      const double dt_s = static_cast<double>(now - oldest.t_ms) / 1000.0;
      if (nodes >= oldest.nodes) {
        nodes_per_sec = static_cast<double>(nodes - oldest.nodes) / dt_s;
      }
      if (oldest.frontier > frontier) {
        const double drain_per_s =
            static_cast<double>(oldest.frontier - frontier) / dt_s;
        have_eta = true;
        eta_s = static_cast<double>(frontier) / drain_per_s;
      }
    }
  }
  window_.push_back(Sample{now, nodes, frontier});
  if (window_.size() > 8) window_.erase(window_.begin());

  JsonWriter w;
  w.begin_object();
  w.key("heartbeat_version");
  w.value_int(kHeartbeatSchemaVersion);
  w.key("run_id");
  w.value_string(options_.run_id);
  w.key("tool");
  w.value_string(options_.tool);
  w.key("task");
  w.value_string(options_.task);
  w.key("seq");
  w.value_uint(next_seq_);
  w.key("uptime_ms");
  w.value_uint(uptime);
  w.key("interval_ms");
  w.value_uint(options_.interval_ms);
  w.key("nodes_total");
  w.value_uint(nodes);
  w.key("transitions_total");
  w.value_uint(transitions);
  w.key("levels_completed");
  w.value_uint(levels);
  w.key("frontier_size");
  w.value_uint(frontier);
  w.key("checkpoint_writes");
  w.value_uint(checkpoints);
  w.key("nodes_per_sec");
  w.value_double(nodes_per_sec);
  w.key("eta_s");
  if (have_eta) {
    w.value_double(eta_s);
  } else {
    w.value_raw("null");
  }
  w.key("workers");
  w.begin_array();
  const int workers = progress.worker_count();
  for (int i = 0; i < workers; ++i) {
    Progress::WorkerSlot* slot = progress.worker(i);
    if (slot == nullptr) break;
    w.begin_object();
    w.key("busy");
    w.value_uint(slot->busy.load(std::memory_order_relaxed));
    w.key("expanded");
    w.value_uint(slot->expanded.load(std::memory_order_relaxed));
    w.key("cas_retries");
    w.value_uint(slot->cas_retries.load(std::memory_order_relaxed));
    w.end_object();
  }
  w.end_array();
  // The stable registry rows (schedule-independent names and, at
  // quiescence, values); histograms are compressed to their quantiles —
  // the full bucket arrays stay in the RunReport.
  const MetricsSnapshot snap = Registry::global().snapshot();
  w.key("metrics");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& row : snap.counters) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.value_uint(row.value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& row : snap.gauges) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.value_int(row.value);
  }
  w.end_object();
  w.key("quantiles");
  w.begin_object();
  for (const auto& row : snap.histograms) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.begin_object();
    w.key("p50");
    w.value_uint(row.quantiles.p50);
    w.key("p90");
    w.value_uint(row.quantiles.p90);
    w.key("p99");
    w.value_uint(row.quantiles.p99);
    w.key("max");
    w.value_uint(row.quantiles.max);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.key("final");
  w.value_bool(final);
  w.end_object();

  const std::string line = std::move(w).str();
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);

  if (!final) {
    ticks_.push_back(Tick{uptime, nodes, frontier, nodes_per_sec});
  }
  ++next_seq_;
}

void HeartbeatSampler::thread_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!quit_) {
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.interval_ms);
    cv_.wait_until(lock, wake, [&] { return quit_; });
    if (quit_) return;
    lock.unlock();
    write_tick(false);
    lock.lock();
  }
}

Status HeartbeatSampler::start() {
  if (const Status s = open(); !s.is_ok()) return s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::ok();
    running_ = true;
    quit_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
  return Status::ok();
}

Status HeartbeatSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::ok();
    quit_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (file_ != nullptr) {
    write_tick(true);
    std::lock_guard<std::mutex> lock(mu_);
    std::fclose(file_);
    file_ = nullptr;
    set_heartbeat_enabled(false);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    running_ = false;
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

namespace {

Status heartbeat_error(std::size_t line_no, const std::string& what) {
  return invalid_argument("heartbeat stream: line " +
                          std::to_string(line_no) + ": " + what);
}

const JsonValue* require_int(const JsonValue& obj, const char* field) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_number() || !v->number_is_integer) return nullptr;
  return v;
}

}  // namespace

Status validate_heartbeat_stream(std::string_view text) {
  bool first = true;
  std::string run_id;
  std::string tool;
  std::string task;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_nodes = 0;
  std::uint64_t prev_transitions = 0;
  std::size_t line_no = 0;
  std::size_t count = 0;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty() ||
        line.find_first_not_of(" \t\r") == std::string_view::npos) {
      if (pos > text.size()) break;
      continue;
    }
    auto parsed = parse_json(line);
    if (!parsed.is_ok()) {
      return heartbeat_error(line_no,
                             "not strict JSON: " + parsed.status().message());
    }
    const JsonValue& root = parsed.value();
    if (!root.is_object()) return heartbeat_error(line_no, "not an object");

    const JsonValue* version = require_int(root, "heartbeat_version");
    if (version == nullptr ||
        version->int_value != kHeartbeatSchemaVersion) {
      return heartbeat_error(line_no, "heartbeat_version != 1");
    }
    for (const char* field : {"run_id", "tool", "task"}) {
      const JsonValue* v = root.find(field);
      if (v == nullptr || !v->is_string()) {
        return heartbeat_error(line_no,
                               std::string(field) + " missing or not a string");
      }
    }
    if (root.find("run_id")->string_value.empty()) {
      return heartbeat_error(line_no, "run_id empty");
    }
    const JsonValue* seq = require_int(root, "seq");
    if (seq == nullptr || seq->int_value < 0) {
      return heartbeat_error(line_no, "seq missing or not a non-negative "
                                      "integer");
    }
    for (const char* field :
         {"uptime_ms", "interval_ms", "nodes_total", "transitions_total",
          "levels_completed", "frontier_size", "checkpoint_writes"}) {
      if (require_int(root, field) == nullptr) {
        return heartbeat_error(
            line_no, std::string(field) + " missing or not an integer");
      }
    }
    if (const JsonValue* rate = root.find("nodes_per_sec");
        rate == nullptr || !rate->is_number()) {
      return heartbeat_error(line_no, "nodes_per_sec missing or not a number");
    }
    if (const JsonValue* eta = root.find("eta_s");
        eta == nullptr ||
        (eta->kind != JsonValue::Kind::kNull && !eta->is_number())) {
      return heartbeat_error(line_no, "eta_s missing or not number/null");
    }
    const JsonValue* workers = root.find("workers");
    if (workers == nullptr || !workers->is_array()) {
      return heartbeat_error(line_no, "workers missing or not an array");
    }
    for (const JsonValue& slot : workers->array) {
      if (!slot.is_object()) {
        return heartbeat_error(line_no, "workers element not an object");
      }
      for (const char* field : {"busy", "expanded", "cas_retries"}) {
        if (require_int(slot, field) == nullptr) {
          return heartbeat_error(line_no, std::string("workers.") + field +
                                              " missing or not an integer");
        }
      }
    }
    const JsonValue* metrics = root.find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      return heartbeat_error(line_no, "metrics missing or not an object");
    }
    const JsonValue* final_flag = root.find("final");
    if (final_flag == nullptr ||
        final_flag->kind != JsonValue::Kind::kBool) {
      return heartbeat_error(line_no, "final missing or not a bool");
    }

    const std::uint64_t this_seq =
        static_cast<std::uint64_t>(seq->int_value);
    const std::uint64_t nodes =
        static_cast<std::uint64_t>(root.find("nodes_total")->int_value);
    const std::uint64_t transitions =
        static_cast<std::uint64_t>(root.find("transitions_total")->int_value);
    if (first) {
      run_id = root.find("run_id")->string_value;
      tool = root.find("tool")->string_value;
      task = root.find("task")->string_value;
      first = false;
    } else {
      if (root.find("run_id")->string_value != run_id) {
        return heartbeat_error(line_no, "run_id changed mid-stream");
      }
      if (root.find("tool")->string_value != tool) {
        return heartbeat_error(line_no, "tool changed mid-stream");
      }
      if (root.find("task")->string_value != task) {
        return heartbeat_error(line_no, "task changed mid-stream");
      }
      if (this_seq != prev_seq + 1) {
        return heartbeat_error(
            line_no, "seq " + std::to_string(this_seq) +
                         " out of order (expected " +
                         std::to_string(prev_seq + 1) + ")");
      }
      if (nodes < prev_nodes) {
        return heartbeat_error(line_no,
                               "nodes_total decreased (cumulative counters "
                               "must be non-decreasing)");
      }
      if (transitions < prev_transitions) {
        return heartbeat_error(line_no,
                               "transitions_total decreased (cumulative "
                               "counters must be non-decreasing)");
      }
    }
    prev_seq = this_seq;
    prev_nodes = nodes;
    prev_transitions = transitions;
    ++count;
    if (pos > text.size()) break;
  }
  if (count == 0) {
    return invalid_argument("heartbeat stream: no heartbeat lines");
  }
  return Status::ok();
}

Status validate_heartbeat_summary_json(std::string_view json) {
  auto parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return invalid_argument("heartbeat summary: document not an object");
  }
  const JsonValue* version = require_int(root, "heartbeat_summary_version");
  if (version == nullptr ||
      version->int_value != kHeartbeatSummarySchemaVersion) {
    return invalid_argument("heartbeat summary: heartbeat_summary_version "
                            "!= 1");
  }
  const JsonValue* run_id = root.find("run_id");
  if (run_id == nullptr || !run_id->is_string() ||
      run_id->string_value.empty()) {
    return invalid_argument("heartbeat summary: run_id missing or empty");
  }
  for (const char* field : {"tool", "task"}) {
    const JsonValue* v = root.find(field);
    if (v == nullptr || !v->is_string()) {
      return invalid_argument(std::string("heartbeat summary: ") + field +
                              " missing or not a string");
    }
  }
  for (const char* field : {"ticks", "first_seq", "last_seq", "nodes_total",
                            "transitions_total", "levels_completed"}) {
    if (require_int(root, field) == nullptr) {
      return invalid_argument(std::string("heartbeat summary: ") + field +
                              " missing or not an integer");
    }
  }
  if (root.find("ticks")->int_value < 1) {
    return invalid_argument("heartbeat summary: ticks < 1");
  }
  if (root.find("last_seq")->int_value < root.find("first_seq")->int_value) {
    return invalid_argument("heartbeat summary: last_seq < first_seq");
  }
  if (const JsonValue* rate = root.find("max_nodes_per_sec");
      rate == nullptr || !rate->is_number()) {
    return invalid_argument(
        "heartbeat summary: max_nodes_per_sec missing or not a number");
  }
  if (const JsonValue* final_seen = root.find("final_seen");
      final_seen == nullptr || final_seen->kind != JsonValue::Kind::kBool) {
    return invalid_argument(
        "heartbeat summary: final_seen missing or not a bool");
  }
  return Status::ok();
}

Status validate_heartbeat_file(std::string_view text) {
  // A digest is a single JSON object carrying heartbeat_summary_version;
  // anything else must validate as a JSONL stream.
  if (auto parsed = parse_json(text); parsed.is_ok() &&
      parsed.value().is_object() &&
      parsed.value().find("heartbeat_summary_version") != nullptr) {
    return validate_heartbeat_summary_json(text);
  }
  return validate_heartbeat_stream(text);
}

}  // namespace lbsa::obs
