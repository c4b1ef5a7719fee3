// Per-job summaries derived from a trace capture: the task-state breakdown
// the paper's Fig. 6 plots (map tasks split by memory / local-disk /
// remote-disk locality class), bytes moved per storage layer, and
// bucket-granular task-latency quantiles.
//
// The input is a Tracer::Snapshot() (real engine, B/E spans) or any event
// list in the same schema (the DES simulator's X events) — both reduce to
// the same completed-span form, so real and simulated runs are summarized
// and diffed with one tool. tools/trace_report.py implements the same
// reduction over the exported JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace eclipse::obs {

/// One "job" span and everything that happened inside its time interval.
struct JobSummary {
  std::uint64_t job_id = 0;     // the job span's "job" argument
  std::uint64_t start_us = 0;   // trace-relative
  std::uint64_t wall_us = 0;

  // Map task-state breakdown (paper Fig. 6): where each map task's input
  // came from. skipped = manifest reuse, no locality class.
  std::uint64_t maps_total = 0;
  std::uint64_t maps_memory = 0;       // iCache hit
  std::uint64_t maps_local_disk = 0;   // block served by the task's own server
  std::uint64_t maps_remote_disk = 0;  // block pulled from a replica elsewhere
  std::uint64_t maps_skipped = 0;
  std::uint64_t map_waves = 0;  // map_phase spans: 1, plus one per producer re-run

  std::uint64_t reduces_total = 0;

  // Bytes moved, by layer the bytes crossed.
  std::uint64_t bytes_from_memory = 0;
  std::uint64_t bytes_from_local_disk = 0;
  std::uint64_t bytes_from_remote_disk = 0;
  std::uint64_t bytes_spilled = 0;

  // Scheduler activity inside the job window.
  std::uint64_t laf_repartitions = 0;
  std::uint64_t sched_assigns = 0;

  // Raw task durations (us), one entry per completed task span; quantiles
  // in the rendered report are exact, computed from these.
  std::vector<std::uint64_t> map_task_us;
  std::vector<std::uint64_t> reduce_task_us;
};

/// Reduce a trace to per-job summaries: pairs B/E spans per (pid, tid)
/// track, accepts X complete events directly, attributes each completed
/// task/spill/decision to the job span whose interval contains its start
/// timestamp. Jobs are returned in start order. Events outside any job span
/// are ignored.
std::vector<JobSummary> Summarize(const std::vector<TraceEvent>& events);

/// Multi-line human-readable report over Summarize()'s output — the format
/// documented field-by-field in docs/observability.md.
std::string RenderJobSummaries(const std::vector<JobSummary>& jobs);

/// Convenience: Summarize + Render straight from the global tracer.
std::string RenderCurrentCapture();

}  // namespace eclipse::obs
