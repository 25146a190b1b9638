#include "campaign/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string_view>

#include "campaign/revision.hpp"
#include "campaign/store.hpp"
#include "campaign/worker.hpp"
#include "metrics/export.hpp"
#include "metrics/snapshot_io.hpp"
#include "sim/bufio.hpp"
#include "sim/json.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::string_view kResultPrefix = "{\"frame\":\"result\",\"cell\":";

// Live view of one cell, updated by heartbeat frames.
struct LiveProgress {
  std::string phase;
  double sim_s{0.0};
  double end_s{0.0};
  double eta_s{0.0};
  double events_per_s{0.0};
  std::uint64_t events{0};
};

struct CellState {
  CellOutcome outcome;
  bool done{false};    // a record for this cell is in the store
  bool running{false};
  LiveProgress live;
  // Tally inputs from the stored record (filled when done).
  LedgerSummary ledger;
};

struct WorkerSlot {
  pid_t pid{-1};
  int out_fd{-1};
  int err_fd{-1};
  std::size_t cell{SIZE_MAX};
  std::string out_buf;
  std::string err_buf;
  std::string last_error;
  bool got_result{false};
  bool poisoned{false};  // injected kill / timeout: discard any result
  int wait_status{0};
  bool reaped{false};
  Clock::time_point started{};

  [[nodiscard]] bool active() const noexcept { return pid != -1; }
  [[nodiscard]] bool drained() const noexcept { return out_fd == -1 && err_fd == -1; }
};

struct ProtoTally {
  unsigned cells{0};
  std::uint64_t delivered{0};
  std::uint64_t expected{0};
  std::uint64_t dropped{0};
};

void close_fd(int& fd) {
  if (fd != -1) {
    ::close(fd);
    fd = -1;
  }
}

// Read everything currently available; returns false once the fd reaches EOF.
bool drain_fd(int& fd, std::string& buf) {
  char chunk[4096];
  while (fd != -1) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      close_fd(fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_fd(fd);
    return false;
  }
  return false;
}

std::string describe_exit(int wait_status) {
  if (WIFEXITED(wait_status)) return cat("exit code ", WEXITSTATUS(wait_status));
  if (WIFSIGNALED(wait_status)) return cat("killed by signal ", WTERMSIG(wait_status));
  return "unknown exit";
}

std::string stderr_tail(const std::string& err_buf, std::size_t max_bytes = 512) {
  if (err_buf.size() <= max_bytes) return err_buf;
  return err_buf.substr(err_buf.size() - max_bytes);
}

const char* outcome_state_name(CellOutcome::State s) {
  switch (s) {
    case CellOutcome::State::kCached: return "cached";
    case CellOutcome::State::kRan: return "ran";
    case CellOutcome::State::kFailed: return "failed";
  }
  return "?";
}

}  // namespace

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options) {
  CampaignResult result;
  result.total = static_cast<unsigned>(cells.size());
  if (cells.empty()) {
    result.error = "campaign: no cells";
    return result;
  }
  const ResultStore store{options.store_dir};
  const std::string base =
      options.out_dir.empty() ? options.prefix : cat(options.out_dir, "/", options.prefix);
  result.status_path = cat(base, "_status.json");
  result.manifest_path = cat(base, "_manifest.json");
  result.aggregate_path = cat(base, "_aggregate_metrics.json");
  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) {
      result.error = cat("campaign: cannot create ", options.out_dir, ": ", ec.message());
      return result;
    }
  }
  const Clock::time_point t0 = Clock::now();

  std::vector<CellState> states(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    states[i].outcome.key = cells[i].key;
    states[i].outcome.label = cells[i].label;
  }

  // ---- cache pre-pass -----------------------------------------------------
  std::vector<std::size_t> queue;  // cells that need simulation, input order
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellRecord rec;
    if (!options.force && store.load(cells[i].key, rec) && rec.key == cells[i].key) {
      CellState& st = states[i];
      st.done = true;
      st.ledger = rec.result.ledger;
      st.outcome.state = CellOutcome::State::kCached;
      st.outcome.conservation_ok = rec.result.metrics.conservation_ok;
      st.outcome.events = rec.result.events_executed;
      ++result.cached;
    } else {
      queue.push_back(i);
    }
  }

  // ---- shared ingest path -------------------------------------------------
  // Every result — worker frame or in-process run — passes through here:
  // parse to verify, check the key, store the bytes verbatim.
  const auto ingest_record_line = [&](std::size_t cell_idx, std::string_view record_line,
                                      std::string& error) {
    CellRecord rec;
    if (!parse_cell_record(record_line, rec, &error)) return false;
    if (rec.key != cells[cell_idx].key) {
      error = cat("worker returned key ", rec.key, " for cell ", cells[cell_idx].key);
      return false;
    }
    if (!store.save_line(rec.key, record_line, &error)) return false;
    CellState& st = states[cell_idx];
    st.ledger = rec.result.ledger;
    st.outcome.conservation_ok = rec.result.metrics.conservation_ok;
    st.outcome.events = rec.result.events_executed;
    return true;
  };

  // ---- fleet observability ------------------------------------------------
  const auto proto_tallies = [&] {
    std::map<std::string, ProtoTally> tallies;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!states[i].done) continue;
      ProtoTally& t = tallies[protocol_token(cells[i].config.protocol)];
      ++t.cells;
      t.delivered += states[i].ledger.delivered;
      t.expected += states[i].ledger.expected;
      t.dropped += states[i].ledger.total_dropped();
    }
    return tallies;
  };

  // False when the file could not be written: the periodic rewrites shrug
  // that off, the final one reports it.
  const auto write_status = [&] {
    unsigned done_ran = 0, running = 0, failed = 0;
    std::uint64_t events = 0;
    double events_per_s = 0.0;
    unsigned conservation_ok = 0, conservation_bad = 0;
    std::vector<std::size_t> running_cells;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellState& st = states[i];
      if (st.running) {
        ++running;
        running_cells.push_back(i);
        events += st.live.events;
        events_per_s += st.live.events_per_s;
      }
      if (st.done) {
        events += st.outcome.events;
        if (st.outcome.state == CellOutcome::State::kRan) ++done_ran;
        (st.outcome.conservation_ok ? conservation_ok : conservation_bad) += 1;
      }
      if (st.outcome.state == CellOutcome::State::kFailed) ++failed;
    }
    const unsigned queued =
        result.total - result.cached - done_ran - running - failed;
    // Stragglers first: longest projected remaining time at the top.
    std::sort(running_cells.begin(), running_cells.end(), [&](std::size_t a, std::size_t b) {
      return states[a].live.eta_s > states[b].live.eta_s;
    });

    BufWriter b;
    b.lit("{\n  \"schema\": \"");
    b.str(std::string{kCampaignStatusSchema});
    b.lit("\",\n  \"revision\": \"");
    b.escaped(build_revision());
    b.lit("\",\n  \"elapsed_s\": ");
    b.dbl(seconds_since(t0));
    b.lit(",\n  \"total\": ");
    b.u64(result.total);
    b.lit(", \"cached\": ");
    b.u64(result.cached);
    b.lit(", \"done\": ");
    b.u64(done_ran);
    b.lit(", \"running\": ");
    b.u64(running);
    b.lit(", \"queued\": ");
    b.u64(queued);
    b.lit(", \"failed\": ");
    b.u64(failed);
    b.lit(", \"retries\": ");
    b.u64(result.retries);
    b.lit(",\n  \"events\": ");
    b.u64(events);
    b.lit(", \"events_per_s\": ");
    b.dbl(events_per_s);
    b.lit(",\n  \"conservation\": {\"ok\": ");
    b.u64(conservation_ok);
    b.lit(", \"bad\": ");
    b.u64(conservation_bad);
    b.lit("},\n  \"per_protocol\": {");
    bool first = true;
    for (const auto& [proto, t] : proto_tallies()) {
      if (!first) b.ch(',');
      first = false;
      b.lit("\n    \"");
      b.escaped(proto);
      b.lit("\": {\"cells\": ");
      b.u64(t.cells);
      b.lit(", \"delivered\": ");
      b.u64(t.delivered);
      b.lit(", \"expected\": ");
      b.u64(t.expected);
      b.lit(", \"dropped\": ");
      b.u64(t.dropped);
      b.ch('}');
    }
    b.lit("\n  },\n  \"running_cells\": [");
    first = true;
    for (const std::size_t i : running_cells) {
      const CellState& st = states[i];
      if (!first) b.ch(',');
      first = false;
      b.lit("\n    {\"key\": \"");
      b.escaped(cells[i].key);
      b.lit("\", \"label\": \"");
      b.escaped(cells[i].label);
      b.lit("\", \"attempt\": ");
      b.u64(st.outcome.attempts);
      b.lit(", \"phase\": \"");
      b.escaped(st.live.phase);
      b.lit("\", \"sim_s\": ");
      b.dbl(st.live.sim_s);
      b.lit(", \"end_s\": ");
      b.dbl(st.live.end_s);
      b.lit(", \"events_per_s\": ");
      b.dbl(st.live.events_per_s);
      b.lit(", \"eta_s\": ");
      b.dbl(st.live.eta_s);
      b.ch('}');
    }
    b.lit("\n  ]\n}\n");
    const bool written = b.flush_to(result.status_path);

    if (options.progress) {
      double fleet_eta = 0.0;
      for (const std::size_t i : running_cells) {
        fleet_eta = std::max(fleet_eta, states[i].live.eta_s);
      }
      std::fprintf(stderr,
                   "\r[campaign] %u/%u done (%u cached, %u failed) | %u running | %.3g ev/s | "
                   "eta %.0fs \x1b[K",
                   result.cached + done_ran, result.total, result.cached, failed, running,
                   events_per_s, fleet_eta);
      std::fflush(stderr);
    }
    return written;
  };

  // ---- frame handling -----------------------------------------------------
  const auto handle_frame = [&](WorkerSlot& slot, std::string_view line) {
    if (line.empty()) return;
    if (line.substr(0, kResultPrefix.size()) == kResultPrefix && line.back() == '}') {
      if (slot.poisoned) return;
      // Slice the record bytes out of the frame verbatim — the store file
      // must be exactly what the worker rendered.
      const std::string_view record_line =
          line.substr(kResultPrefix.size(), line.size() - kResultPrefix.size() - 1);
      std::string error;
      if (ingest_record_line(slot.cell, record_line, error)) {
        slot.got_result = true;
      } else {
        slot.last_error = error;
      }
      return;
    }
    std::string parse_error;
    const JsonValue doc = JsonValue::parse(line, &parse_error);
    const std::string& kind = doc.at("frame").as_string();
    if (kind == "hb") {
      const JsonValue& p = doc.at("progress");
      LiveProgress& live = states[slot.cell].live;
      live.phase = p.at("phase").as_string();
      live.sim_s = p.at("sim_s").as_number();
      live.end_s = p.at("end_s").as_number();
      live.eta_s = p.at("eta_s").as_number();
      live.events_per_s = p.at("events_per_s").as_number();
      live.events = p.at("events").as_u64();
    } else if (kind == "error") {
      slot.last_error = doc.at("message").as_string();
    }
  };

  const auto consume_lines = [&](WorkerSlot& slot) {
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = slot.out_buf.find('\n', start);
      if (nl == std::string::npos) break;
      handle_frame(slot, std::string_view{slot.out_buf}.substr(start, nl - start));
      start = nl + 1;
    }
    slot.out_buf.erase(0, start);
  };

  // ---- attempt lifecycle --------------------------------------------------
  std::size_t next_queued = 0;       // index into `queue`
  unsigned scheduled_runs = 0;       // run-order counter for inject_kill
  std::vector<std::size_t> requeue;  // failed attempts awaiting retry

  const auto next_cell = [&]() -> std::size_t {
    if (!requeue.empty()) {
      const std::size_t idx = requeue.front();
      requeue.erase(requeue.begin());
      return idx;
    }
    if (next_queued < queue.size()) return queue[next_queued++];
    return SIZE_MAX;
  };

  const auto spawn = [&](WorkerSlot& slot, std::size_t cell_idx) {
    int out_pipe[2] = {-1, -1};
    int err_pipe[2] = {-1, -1};
    if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
      close_fd(out_pipe[0]), close_fd(out_pipe[1]);
      close_fd(err_pipe[0]), close_fd(err_pipe[1]);
      return false;
    }
    char hb[32];
    std::snprintf(hb, sizeof hb, "%.3f", options.heartbeat_interval_s);
    const pid_t pid = ::fork();
    if (pid < 0) {
      close_fd(out_pipe[0]), close_fd(out_pipe[1]);
      close_fd(err_pipe[0]), close_fd(err_pipe[1]);
      return false;
    }
    if (pid == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      ::close(out_pipe[0]), ::close(out_pipe[1]);
      ::close(err_pipe[0]), ::close(err_pipe[1]);
      ::execl(options.worker_binary.c_str(), options.worker_binary.c_str(), "--worker",
              cells[cell_idx].canonical.c_str(), "--worker-heartbeat", hb,
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "exec %s: %s\n", options.worker_binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(err_pipe[0], F_SETFL, O_NONBLOCK);
    slot = WorkerSlot{};
    slot.pid = pid;
    slot.out_fd = out_pipe[0];
    slot.err_fd = err_pipe[0];
    slot.cell = cell_idx;
    slot.started = Clock::now();
    CellState& st = states[cell_idx];
    st.running = true;
    st.live = LiveProgress{};
    ++st.outcome.attempts;
    if (st.outcome.attempts > 1) ++result.retries;
    ++scheduled_runs;
    if (options.inject_kill_cell != 0 && scheduled_runs == options.inject_kill_cell &&
        st.outcome.attempts == 1) {
      // Crash-injection hook: kill before the worker can produce anything,
      // and poison the slot so even a racing result frame is discarded —
      // the retry is then guaranteed to be the attempt that lands.
      ::kill(pid, SIGKILL);
      slot.poisoned = true;
      slot.last_error = "injected SIGKILL (test hook)";
    }
    return true;
  };

  const auto finalize_attempt = [&](WorkerSlot& slot) {
    consume_lines(slot);
    if (!slot.out_buf.empty()) {
      handle_frame(slot, slot.out_buf);
      slot.out_buf.clear();
    }
    const std::size_t cell_idx = slot.cell;
    CellState& st = states[cell_idx];
    st.running = false;
    const bool exited_ok = WIFEXITED(slot.wait_status) && WEXITSTATUS(slot.wait_status) == 0;
    if (slot.got_result && exited_ok && !slot.poisoned) {
      st.done = true;
      st.outcome.state = CellOutcome::State::kRan;
      st.outcome.wall_s = seconds_since(slot.started);
      ++result.ran;
    } else {
      std::string why = slot.last_error.empty() ? describe_exit(slot.wait_status)
                                                : slot.last_error;
      const std::string tail = stderr_tail(slot.err_buf);
      if (!tail.empty()) why += cat(" | stderr: ", tail);
      if (st.outcome.attempts < options.max_attempts) {
        requeue.push_back(cell_idx);
      } else {
        st.outcome.state = CellOutcome::State::kFailed;
        st.outcome.error = why;
        ++result.failed;
      }
    }
    slot = WorkerSlot{};
  };

  // ---- execution ----------------------------------------------------------
  if (options.workers == 0) {
    // In-process serial mode: same frames, same ingest, no processes.
    std::size_t cell_idx;
    while ((cell_idx = next_cell()) != SIZE_MAX) {
      CellState& st = states[cell_idx];
      ++st.outcome.attempts;
      if (st.outcome.attempts > 1) ++result.retries;
      const Clock::time_point start = Clock::now();
      char* buf = nullptr;
      std::size_t len = 0;
      std::FILE* mem = ::open_memstream(&buf, &len);
      WorkerOptions wo;
      wo.heartbeat_interval_s = 0.0;
      const int rc = mem != nullptr ? run_worker_cell(cells[cell_idx].canonical, wo, mem) : 1;
      if (mem != nullptr) std::fclose(mem);
      WorkerSlot fake;
      fake.cell = cell_idx;
      if (buf != nullptr) {
        fake.out_buf.assign(buf, len);
        std::free(buf);
      }
      fake.wait_status = 0;
      fake.reaped = true;
      consume_lines(fake);
      if (!fake.out_buf.empty()) handle_frame(fake, fake.out_buf);
      st.running = false;
      if (rc == 0 && fake.got_result) {
        st.done = true;
        st.outcome.state = CellOutcome::State::kRan;
        st.outcome.wall_s = seconds_since(start);
        ++result.ran;
      } else if (st.outcome.attempts < options.max_attempts) {
        requeue.push_back(cell_idx);
      } else {
        st.outcome.state = CellOutcome::State::kFailed;
        st.outcome.error = fake.last_error.empty() ? cat("worker exit code ", rc)
                                                   : fake.last_error;
        ++result.failed;
      }
      write_status();
    }
  } else {
    if (options.worker_binary.empty()) {
      result.error = "campaign: worker_binary is required when workers > 0";
      return result;
    }
    // Never more slots than cells to run: `workers` is caller-sized (e.g.
    // from the environment) and each slot is a live process.
    std::vector<WorkerSlot> slots(std::min<std::size_t>(options.workers, queue.size()));
    Clock::time_point last_status = Clock::now() - std::chrono::hours(1);
    while (true) {
      // Top up idle slots.
      for (WorkerSlot& slot : slots) {
        if (slot.active()) continue;
        const std::size_t cell_idx = next_cell();
        if (cell_idx == SIZE_MAX) break;
        if (!spawn(slot, cell_idx)) {
          // Spawn failure burns the attempt; retry logic decides what's next.
          CellState& st = states[cell_idx];
          ++st.outcome.attempts;
          if (st.outcome.attempts < options.max_attempts) {
            requeue.push_back(cell_idx);
          } else {
            st.outcome.state = CellOutcome::State::kFailed;
            st.outcome.error = "failed to spawn worker process";
            ++result.failed;
          }
        }
      }
      const bool any_active =
          std::any_of(slots.begin(), slots.end(), [](const WorkerSlot& s) { return s.active(); });
      if (!any_active) break;

      std::vector<pollfd> fds;
      for (const WorkerSlot& slot : slots) {
        if (slot.out_fd != -1) fds.push_back({slot.out_fd, POLLIN, 0});
        if (slot.err_fd != -1) fds.push_back({slot.err_fd, POLLIN, 0});
      }
      (void)::poll(fds.data(), fds.size(), 100);

      for (WorkerSlot& slot : slots) {
        if (!slot.active()) continue;
        if (slot.out_fd != -1) (void)drain_fd(slot.out_fd, slot.out_buf);
        consume_lines(slot);
        if (slot.err_fd != -1) (void)drain_fd(slot.err_fd, slot.err_buf);
        if (!slot.reaped) {
          int wstatus = 0;
          const pid_t r = ::waitpid(slot.pid, &wstatus, WNOHANG);
          if (r == slot.pid) {
            slot.reaped = true;
            slot.wait_status = wstatus;
          }
        }
        if (slot.reaped && slot.out_fd == -1 && slot.err_fd == -1) {
          finalize_attempt(slot);
          continue;
        }
        if (options.worker_timeout_s > 0.0 && !slot.reaped &&
            seconds_since(slot.started) > options.worker_timeout_s) {
          ::kill(slot.pid, SIGKILL);
          slot.poisoned = true;
          slot.last_error = cat("timeout after ", options.worker_timeout_s, "s");
        }
      }

      if (seconds_since(last_status) >= options.status_interval_s) {
        last_status = Clock::now();
        write_status();
      }
    }
  }

  // ---- final aggregate: canonical cell order, straight from the store ----
  MetricsRegistry aggregate;
  LedgerSummary merged_ledger;
  bool cells_conserved = true;
  unsigned merged = 0;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!states[i].done) continue;
    CellRecord rec;
    std::string error;
    if (!store.load(cells[i].key, rec, &error)) {
      states[i].outcome.state = CellOutcome::State::kFailed;
      states[i].outcome.error = error;
      ++result.failed;
      continue;
    }
    std::string snap_error;
    LedgerSummary cell_ledger;
    MetricsRegistry cell_registry;
    if (!parse_metrics_snapshot(rec.snapshot_json, cell_registry, cell_ledger, &snap_error)) {
      states[i].outcome.state = CellOutcome::State::kFailed;
      states[i].outcome.error = snap_error;
      ++result.failed;
      continue;
    }
    aggregate.merge(cell_registry);
    merged_ledger.journeys += cell_ledger.journeys;
    merged_ledger.expected += cell_ledger.expected;
    merged_ledger.delivered += cell_ledger.delivered;
    for (std::size_t d = 0; d < kDropReasonCount; ++d) {
      merged_ledger.dropped[d] += cell_ledger.dropped[d];
    }
    cells_conserved = cells_conserved && cell_ledger.conservation_ok();
    total_events += rec.result.events_executed;
    ++merged;
  }
  result.ledger = merged_ledger;
  result.events = total_events;
  const bool conservation_ok = cells_conserved && merged_ledger.conservation_ok();

  std::string unwritten;  // last artifact whose write failed
  BufWriter block;
  block.lit("{\"schema\": \"");
  block.str(std::string{kCampaignAggregateSchema});
  block.lit("\", \"revision\": \"");
  block.escaped(build_revision());
  block.lit("\", \"cells\": ");
  block.u64(merged);
  block.lit(", \"conservation_ok\": ");
  block.lit(conservation_ok ? "true" : "false");
  block.lit(", \"keys\": [");
  bool first_key = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!states[i].done) continue;
    if (!first_key) block.lit(", ");
    first_key = false;
    block.ch('"');
    block.escaped(cells[i].key);
    block.ch('"');
  }
  block.lit("]}");
  {
    BufWriter doc;
    doc.s = to_metrics_json(aggregate, merged_ledger, nullptr, "campaign", block.s);
    if (!doc.flush_to(result.aggregate_path)) unwritten = result.aggregate_path;
  }

  // ---- manifest -----------------------------------------------------------
  result.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < cells.size(); ++i) result.cells.push_back(states[i].outcome);
  result.ok = result.failed == 0;

  BufWriter m;
  m.lit("{\n  \"schema\": \"");
  m.str(std::string{kCampaignManifestSchema});
  m.lit("\",\n  \"revision\": \"");
  m.escaped(build_revision());
  m.lit("\",\n  \"store\": \"");
  m.escaped(options.store_dir);
  m.lit("\",\n  \"aggregate\": \"");
  m.escaped(result.aggregate_path);
  m.lit("\",\n  \"total\": ");
  m.u64(result.total);
  m.lit(", \"cached\": ");
  m.u64(result.cached);
  m.lit(", \"ran\": ");
  m.u64(result.ran);
  m.lit(", \"failed\": ");
  m.u64(result.failed);
  m.lit(", \"retries\": ");
  m.u64(result.retries);
  m.lit(",\n  \"events\": ");
  m.u64(result.events);
  m.lit(", \"wall_s\": ");
  m.dbl(result.wall_s);
  m.lit(",\n  \"conservation_ok\": ");
  m.lit(conservation_ok ? "true" : "false");
  m.lit(",\n  \"cells\": [");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome& o = result.cells[i];
    if (i != 0) m.ch(',');
    m.lit("\n    {\"key\": \"");
    m.escaped(o.key);
    m.lit("\", \"label\": \"");
    m.escaped(o.label);
    m.lit("\", \"state\": \"");
    m.lit(outcome_state_name(o.state));
    m.lit("\", \"attempts\": ");
    m.u64(o.attempts);
    m.lit(", \"conservation_ok\": ");
    m.lit(o.conservation_ok ? "true" : "false");
    m.lit(", \"events\": ");
    m.u64(o.events);
    m.lit(", \"wall_s\": ");
    m.dbl(o.wall_s);
    m.lit(", \"record\": \"");
    m.escaped(o.state == CellOutcome::State::kFailed ? std::string{}
                                                     : store.path_for(o.key));
    m.lit("\", \"error\": \"");
    m.escaped(o.error);
    m.lit("\"}");
  }
  m.lit("\n  ]\n}\n");
  if (!m.flush_to(result.manifest_path)) unwritten = result.manifest_path;
  if (!write_status()) unwritten = result.status_path;
  if (!unwritten.empty()) result.error = cat("campaign: cannot write ", unwritten);
  if (options.progress) std::fprintf(stderr, "\n");
  return result;
}

}  // namespace rmacsim
