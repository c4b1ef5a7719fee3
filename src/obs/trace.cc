#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

namespace eclipse::obs {

// Thread-exit hook: defined at namespace scope (not in the anonymous
// namespace) so it can be befriended by Tracer and reach ThreadLog.
struct ThreadLogCleanup {
  static void Release(void* opaque) {
    auto* log = static_cast<Tracer::ThreadLog*>(opaque);
    MutexLock lock(log->mu);
    log->chunks.clear();
    log->current = nullptr;
    log->session_published.store(0, std::memory_order_release);
  }
};

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread registration handle. The destructor runs at thread exit and
// releases the thread's chunk memory (its ThreadLog shell stays in the
// tracer's registry forever — the registry is append-only). Consequence: a
// capture must be exported before the emitting threads — e.g. a Cluster's
// worker pools — are destroyed, or their events are gone.
struct TlsSlot {
  void* log = nullptr;  // Tracer::ThreadLog*, opaque outside the Tracer
  ~TlsSlot() {
    if (log != nullptr) ThreadLogCleanup::Release(log);
  }
};

thread_local TlsSlot t_slot;

}  // namespace

Tracer& Tracer::Global() {
  // Leaked singleton: emitting threads and their thread_local destructors
  // may outlive any static-destruction order.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start() {
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  overwritten_chunks_.store(0, std::memory_order_relaxed);
  session_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::Clear() {
  // Invalidate every captured event by opening an (empty) new session
  // without enabling emission. Chunk memory is reclaimed when each owning
  // thread next registers (or exits); it is never freed from here, because
  // an emitting thread may be mid-append in its current chunk.
  session_.fetch_add(1, std::memory_order_relaxed);
  overwritten_chunks_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::NowUs() const {
  std::int64_t delta = SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
  return delta <= 0 ? 0 : static_cast<std::uint64_t>(delta) / 1000;
}

Tracer::ThreadLog* Tracer::PrepareThreadLog(std::uint64_t session) {
  auto* log = static_cast<ThreadLog*>(t_slot.log);
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    log = owned.get();
    {
      MutexLock lock(mu_);
      log->tid = next_tid_++;
      logs_.push_back(std::move(owned));
    }
    t_slot.log = log;
  }
  {
    MutexLock lock(log->mu);
    log->chunks.clear();  // previous session's events are already invalid
    log->chunks.push_back(std::make_unique<Chunk>());
    log->current = log->chunks.back().get();
    log->session_published.store(session, std::memory_order_release);
  }
  log->session = session;
  return log;
}

Tracer::Chunk* Tracer::Rollover(ThreadLog* log) {
  MutexLock lock(log->mu);
  if (log->chunks.size() < kMaxChunksPerLog) {
    log->chunks.push_back(std::make_unique<Chunk>());
  } else {
    // Flight-recorder wrap: recycle the oldest chunk. Its events vanish from
    // the capture; account for that so reports can flag truncation.
    auto oldest = std::move(log->chunks.front());
    log->chunks.erase(log->chunks.begin());
    oldest->used.store(0, std::memory_order_release);
    log->chunks.push_back(std::move(oldest));
    overwritten_chunks_.fetch_add(1, std::memory_order_relaxed);
  }
  log->current = log->chunks.back().get();
  return log->current;
}

void Tracer::Append(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
                    const char* name, int pid, const std::uint32_t* tid_override,
                    const TraceArg* args, std::size_t nargs) {
  std::uint64_t session = session_.load(std::memory_order_relaxed);
  auto* log = static_cast<ThreadLog*>(t_slot.log);
  if (log == nullptr || log->session != session) log = PrepareThreadLog(session);

  Chunk* chunk = log->current;
  std::uint32_t used = chunk->used.load(std::memory_order_relaxed);
  if (used == kChunkEvents) {
    chunk = Rollover(log);
    used = 0;
  }
  TraceEvent& e = chunk->ev[used];
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = name;
  e.cat = cat;
  e.pid = pid;
  e.tid = tid_override != nullptr ? *tid_override : log->tid;
  e.phase = phase;
  e.nargs = 0;
  for (std::size_t i = 0; i < nargs && e.nargs < TraceEvent::kMaxArgs; ++i) {
    e.args[e.nargs++] = args[i];
  }
  chunk->used.store(used + 1, std::memory_order_release);
}

void Tracer::Emit(char phase, const char* cat, const char* name, int pid,
                  std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  Append(NowUs(), 0, phase, cat, name, pid, nullptr, args.begin(), args.size());
}

void Tracer::Emit(char phase, const char* cat, const char* name, int pid, const TraceArg* args,
                  std::size_t nargs) {
  if (!enabled()) return;
  Append(NowUs(), 0, phase, cat, name, pid, nullptr, args, nargs);
}

void Tracer::EmitAt(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
                    const char* name, int pid, std::uint32_t tid,
                    std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  Append(ts_us, dur_us, phase, cat, name, pid, &tid, args.begin(), args.size());
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<ThreadLog*> logs;
  {
    MutexLock lock(mu_);
    logs.reserve(logs_.size());
    for (const auto& l : logs_) logs.push_back(l.get());
  }
  std::uint64_t session = session_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  for (ThreadLog* log : logs) {
    MutexLock lock(log->mu);
    if (log->session_published.load(std::memory_order_acquire) != session) continue;
    for (const auto& chunk : log->chunks) {
      std::uint32_t used = chunk->used.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < used; ++i) out.push_back(chunk->ev[i]);
    }
  }
  // Stable: each thread's events arrive in emission order, so among equal
  // timestamps B precedes E and nested pairs stay matched per track.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  return out;
}

namespace {

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*s) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", *s);
          out += buf;
        } else {
          out += *s;
        }
    }
  }
}

}  // namespace

std::string Tracer::ExportChromeTrace() const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"";
    out += e.phase;
    std::snprintf(buf, sizeof buf, "\",\"ts\":%llu,", static_cast<unsigned long long>(e.ts_us));
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof buf, "\"dur\":%llu,",
                    static_cast<unsigned long long>(e.dur_us));
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "\"pid\":%d,\"tid\":%u,\"cat\":\"", e.pid, e.tid);
    out += buf;
    AppendEscaped(out, e.cat != nullptr ? e.cat : "");
    out += "\",\"name\":\"";
    AppendEscaped(out, e.name != nullptr ? e.name : "");
    out += '"';
    if (e.nargs > 0) {
      out += ",\"args\":{";
      for (std::uint8_t i = 0; i < e.nargs; ++i) {
        if (i != 0) out += ',';
        out += '"';
        AppendEscaped(out, e.args[i].key != nullptr ? e.args[i].key : "");
        out += "\":";
        if (e.args[i].sval != nullptr) {
          out += '"';
          AppendEscaped(out, e.args[i].sval);
          out += '"';
        } else {
          std::snprintf(buf, sizeof buf, "%llu",
                        static_cast<unsigned long long>(e.args[i].uval));
          out += buf;
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Error(ErrorCode::kInternal, "cannot open " + path);
  f << ExportChromeTrace();
  f.close();
  if (!f) return Status::Error(ErrorCode::kInternal, "short write to " + path);
  return Status::Ok();
}

TraceSpan::TraceSpan(const char* cat, const char* name, int pid,
                     std::initializer_list<TraceArg> args)
    : cat_(cat), name_(name), pid_(pid), active_(Tracer::Global().enabled()) {
  if (active_) Tracer::Global().Emit('B', cat_, name_, pid_, args);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  Tracer::Global().Emit('E', cat_, name_, pid_, args_.data(), nargs_);
}

void TraceSpan::AddArg(TraceArg arg) {
  if (!active_) return;
  if (nargs_ < args_.size()) args_[nargs_++] = arg;
}

Status ValidateChromeTrace(const std::vector<TraceEvent>& events) {
  std::map<std::pair<std::int32_t, std::uint32_t>, std::vector<std::string_view>> open;
  for (const TraceEvent& e : events) {
    if (e.name == nullptr || e.cat == nullptr) {
      return Status::Error(ErrorCode::kCorruption, "trace: event without name or category");
    }
    std::vector<std::string_view>& stack = open[{e.pid, e.tid}];
    switch (e.phase) {
      case 'B':
        stack.push_back(e.name);
        break;
      case 'E':
        if (stack.empty() || stack.back() != e.name) {
          return Status::Error(ErrorCode::kCorruption,
                               std::string("trace: E event '") + e.name +
                                   "' does not close the innermost open span");
        }
        stack.pop_back();
        break;
      case 'i':
      case 'X':
        break;
      default:
        return Status::Error(ErrorCode::kCorruption,
                             std::string("trace: unsupported phase '") + e.phase + "'");
    }
  }
  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      return Status::Error(ErrorCode::kCorruption,
                           "trace: unclosed span '" + std::string(stack.back()) + "' on pid " +
                               std::to_string(track.first) + " tid " +
                               std::to_string(track.second));
    }
  }
  return Status::Ok();
}

}  // namespace eclipse::obs
