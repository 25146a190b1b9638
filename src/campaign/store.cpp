#include "campaign/store.hpp"

#include <unistd.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "metrics/snapshot_io.hpp"
#include "scenario/config_key.hpp"
#include "sim/bufio.hpp"
#include "sim/json.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {

bool set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// Shortest round-trip double — a parsed record re-serializes byte-identically.
void dblr(BufWriter& b, double v) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  b.s.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void figure(BufWriter& b, const char* name, double v, bool first = false) {
  if (!first) b.ch(',');
  b.ch('"');
  b.lit(name);
  b.lit("\":");
  dblr(b, v);
}

void figure_u64(BufWriter& b, const char* name, std::uint64_t v) {
  b.lit(",\"");
  b.lit(name);
  b.lit("\":");
  b.u64(v);
}

}  // namespace

std::string serialize_cell_record(const CellRecord& rec) {
  BufWriter b;
  b.lit("{\"schema\":\"");
  b.str(std::string{kCellRecordSchema});
  b.lit("\",\"key\":\"");
  b.escaped(rec.key);
  b.lit("\",\"canonical\":\"");
  b.escaped(rec.canonical);
  b.lit("\",\"label\":\"");
  b.escaped(rec.label);
  b.lit("\",\"revision\":\"");
  b.escaped(rec.revision);
  b.lit("\",\"figures\":{");
  const ExperimentResult& r = rec.result;
  figure(b, "delivery_ratio", r.delivery_ratio, true);
  figure(b, "avg_delay_s", r.avg_delay_s);
  figure(b, "p99_delay_s", r.p99_delay_s);
  figure(b, "avg_drop_ratio", r.avg_drop_ratio);
  figure(b, "avg_retx_ratio", r.avg_retx_ratio);
  figure(b, "avg_txoh_ratio", r.avg_txoh_ratio);
  figure(b, "mrts_len_avg", r.mrts_len_avg);
  figure(b, "mrts_len_p99", r.mrts_len_p99);
  figure(b, "mrts_len_max", r.mrts_len_max);
  figure(b, "abort_avg", r.abort_avg);
  figure(b, "abort_p99", r.abort_p99);
  figure(b, "abort_max", r.abort_max);
  figure(b, "tree_hops_avg", r.tree_hops_avg);
  figure(b, "tree_hops_p99", r.tree_hops_p99);
  figure(b, "tree_children_avg", r.tree_children_avg);
  figure(b, "tree_children_p99", r.tree_children_p99);
  figure(b, "mac_believed_success", r.mac_believed_success);
  figure_u64(b, "generated", r.generated);
  figure_u64(b, "delivered", r.delivered);
  figure_u64(b, "expected", r.expected);
  figure_u64(b, "events", r.events_executed);
  b.lit("},\"delay_samples\":[");
  for (std::size_t i = 0; i < r.delay_samples_s.size(); ++i) {
    if (i != 0) b.ch(',');
    dblr(b, r.delay_samples_s[i]);
  }
  b.lit("],\"digest\":{\"trace\":");
  b.u64(r.trace_digest);
  b.lit(",\"xsum\":");
  b.u64(r.trace_digest_xsum);
  b.lit("},\"snapshot\":\"");
  b.escaped(rec.snapshot_json);
  b.lit("\"}");
  return std::move(b.s);
}

bool parse_cell_record(std::string_view line, CellRecord& out, std::string* error) {
  std::string parse_error;
  const JsonValue doc = JsonValue::parse(line, &parse_error);
  if (!doc.is_object()) {
    return set_error(error, cat("cell record: ", parse_error.empty() ? "not an object"
                                                                     : parse_error.c_str()));
  }
  if (doc.at("schema").as_string() != kCellRecordSchema) {
    return set_error(error, cat("cell record: unknown schema ", doc.at("schema").as_string()));
  }
  CellRecord rec;
  rec.key = doc.at("key").as_string();
  rec.canonical = doc.at("canonical").as_string();
  rec.label = doc.at("label").as_string();
  rec.revision = doc.at("revision").as_string();
  rec.snapshot_json = doc.at("snapshot").as_string();
  if (rec.key.empty() || rec.canonical.empty() || rec.snapshot_json.empty()) {
    return set_error(error, "cell record: missing key/canonical/snapshot");
  }
  std::string cfg_error;
  if (!parse_canonical_config(rec.canonical, rec.result.config, &cfg_error)) {
    return set_error(error, cat("cell record: ", cfg_error));
  }

  const JsonValue& fig = doc.at("figures");
  ExperimentResult& r = rec.result;
  r.delivery_ratio = fig.at("delivery_ratio").as_number();
  r.avg_delay_s = fig.at("avg_delay_s").as_number();
  r.p99_delay_s = fig.at("p99_delay_s").as_number();
  r.avg_drop_ratio = fig.at("avg_drop_ratio").as_number();
  r.avg_retx_ratio = fig.at("avg_retx_ratio").as_number();
  r.avg_txoh_ratio = fig.at("avg_txoh_ratio").as_number();
  r.mrts_len_avg = fig.at("mrts_len_avg").as_number();
  r.mrts_len_p99 = fig.at("mrts_len_p99").as_number();
  r.mrts_len_max = fig.at("mrts_len_max").as_number();
  r.abort_avg = fig.at("abort_avg").as_number();
  r.abort_p99 = fig.at("abort_p99").as_number();
  r.abort_max = fig.at("abort_max").as_number();
  r.tree_hops_avg = fig.at("tree_hops_avg").as_number();
  r.tree_hops_p99 = fig.at("tree_hops_p99").as_number();
  r.tree_children_avg = fig.at("tree_children_avg").as_number();
  r.tree_children_p99 = fig.at("tree_children_p99").as_number();
  r.mac_believed_success = fig.at("mac_believed_success").as_number();
  r.generated = fig.at("generated").as_u64();
  r.delivered = fig.at("delivered").as_u64();
  r.expected = fig.at("expected").as_u64();
  r.events_executed = fig.at("events").as_u64();

  const JsonValue& delays = doc.at("delay_samples");
  r.delay_samples_s.clear();
  r.delay_samples_s.reserve(delays.size());
  for (const JsonValue& d : delays.array()) r.delay_samples_s.push_back(d.as_number());

  r.trace_digest = doc.at("digest").at("trace").as_u64();
  r.trace_digest_xsum = doc.at("digest").at("xsum").as_u64();

  // Ledger + metrics summary come from the embedded snapshot, keeping the
  // record free of redundant (and divergence-prone) copies.
  MetricsRegistry scratch;
  std::string snap_error;
  r.ledger = LedgerSummary{};
  if (!parse_metrics_snapshot(rec.snapshot_json, scratch, r.ledger, &snap_error)) {
    return set_error(error, cat("cell record: ", snap_error));
  }
  r.metrics.series = scratch.series_count();
  r.metrics.conservation_ok = r.ledger.conservation_ok();
  r.metrics.json = rec.snapshot_json;

  out = std::move(rec);
  return true;
}

std::string ResultStore::path_for(std::string_view key) const {
  return cat(dir_, "/", key, ".json");
}

bool ResultStore::contains(std::string_view key) const {
  std::error_code ec;
  return std::filesystem::exists(path_for(key), ec);
}

bool ResultStore::load_line(std::string_view key, std::string& out) const {
  std::ifstream is(path_for(key), std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = std::move(ss).str();
  // Strip the trailing newline save_line appends.
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return !out.empty();
}

bool ResultStore::load(std::string_view key, CellRecord& out, std::string* error) const {
  std::string line;
  if (!load_line(key, line)) {
    return set_error(error, cat("store: no record for key ", key));
  }
  return parse_cell_record(line, out, error);
}

bool ResultStore::save_line(std::string_view key, std::string_view line,
                            std::string* error) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = path_for(key);
  const std::string tmp = cat(dir_, "/.tmp.", key, ".", ::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return set_error(error, cat("store: cannot write ", tmp));
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
    os.put('\n');
    if (!os) return set_error(error, cat("store: short write to ", tmp));
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return set_error(error, cat("store: rename to ", path, " failed"));
  }
  return true;
}

}  // namespace rmacsim
