// Content-addressed campaign result store.
//
// One cell result = one single-line JSON record (rmacsim-cell-v1) in
// <dir>/<key>.json, where key = cell_key(canonical config, code revision).
// The record carries everything a consumer can ask of a finished run — the
// paper-figure scalars, pooled delay samples, trace digests, and the full
// metrics snapshot (embedded verbatim as an escaped string, so aggregating
// N records re-parses exactly the bytes each worker produced).  Records have
// NO wall-clock or host fields: re-running a cell on the same code writes a
// byte-identical file, which is what lets the crash-retry test diff files
// and lets repeated campaigns hit the cache by pure content address.
//
// Writes are atomic (temp file + rename) so a campaign killed mid-write
// never leaves a torn record, and concurrent writers of the same key —
// possible when a timed-out worker's result races its retry — both land a
// complete, identical file.
#pragma once

#include <string>
#include <string_view>

#include "scenario/experiment.hpp"

namespace rmacsim {

inline constexpr std::string_view kCellRecordSchema = "rmacsim-cell-v1";

struct CellRecord {
  std::string key;
  std::string canonical;      // canonical config string (parse for the config)
  std::string label;          // "<proto>/<mob>/r<rate>/s<seed>"
  std::string revision;       // code revision baked into the key
  // Figure scalars, delay samples, ledger, and digests live on `result`
  // (result.config is reconstructed from `canonical` on parse).
  ExperimentResult result;
  std::string snapshot_json;  // the cell's full metrics JSON document
};

// Render the record as one newline-free JSON line (no trailing newline).
// Deterministic: fixed field order, shortest round-trip doubles.
[[nodiscard]] std::string serialize_cell_record(const CellRecord& rec);

// Parse a record line.  Fills result.config from the canonical string, the
// figure scalars, delay samples, digests, and re-derives result.ledger and
// result.metrics from the embedded snapshot.  Returns false on schema or
// shape errors.
[[nodiscard]] bool parse_cell_record(std::string_view line, CellRecord& out,
                                     std::string* error = nullptr);

class ResultStore {
public:
  // Creates the directory lazily on first save.
  explicit ResultStore(std::string dir) : dir_{std::move(dir)} {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string path_for(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  // Load + parse the record for `key`; false when absent or corrupt.
  [[nodiscard]] bool load(std::string_view key, CellRecord& out,
                          std::string* error = nullptr) const;
  // Load the raw record line (no parse); false when absent.
  [[nodiscard]] bool load_line(std::string_view key, std::string& out) const;

  // Atomically write a serialized record line under `key`.
  [[nodiscard]] bool save_line(std::string_view key, std::string_view line,
                               std::string* error = nullptr) const;

private:
  std::string dir_;
};

}  // namespace rmacsim
