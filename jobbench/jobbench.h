// Shared declarations of the job-stream benchmark (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "mr/types.h"

namespace jobbench {

using Clock = std::chrono::steady_clock;

/// Track (trace pid) of the spans the benchmark records around its own
/// calls into the engine — kept apart from the engine's server and coordinator
/// tracks so trace_report.py summaries stay per-server.
inline constexpr int kBenchPid = 2'000'000;

/// One named measurement with its unit, as printed and as put in the
/// result JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The shape of one workload: which application, how many closed-loop
/// submitters, how big each fresh input is, how many jobs run on each input
/// before the submitter ingests the next one (the first of them is the cold
/// job, the rest are warm), whether the benchmark frees spills, and when it
/// reads the resident set.
struct Workload {
  std::string name;
  bool sort = false;  // apps::SortJob, else apps::WordCountJob
  int submitters = 1;
  eclipse::Bytes corpus_bytes = 0;
  eclipse::Bytes block_size = 0;
  int jobs_per_file = 2;
  bool expire_spills = false;  // spills get a TTL and are swept between rounds
  bool tcp = false;            // data plane in worker processes over loopback TCP
  // rss_mib is read when the stream has completed this many timed jobs,
  // about a third of what a 25 s run completes on a calm host.
  int rss_after_jobs = 1;
};

/// What the benchmark saw of one timed job.
struct JobRecord {
  std::uint64_t job_id = 0;
  bool cold = false;
  double ms = 0.0;                // Submit -> return of Wait
  std::uint64_t submit_us = 0;    // tracer clock; traced runs only
  std::uint64_t eta_us = 0;
  bool ok = false;                // ok status and output equal to the oracle
  eclipse::mr::JobStats stats;
};

/// What the benchmark saw of one Upload of a fresh input.
struct UploadRecord {
  double ms = 0.0;
  eclipse::Bytes bytes = 0;
};

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// Per-layer numbers from one traced stream: the engine's own spans and
/// instants, the benchmark's spans, and the wrapped map/reduce functions.
/// Events at or after `window_end_us` (the probes) are ignored. Appends to
/// `out`; writes the slow-half/fast-half breakdown to `report`.
void AnalyzeTrace(const std::vector<JobRecord>& jobs, const std::vector<UploadRecord>& uploads,
                  std::uint64_t window_end_us, Metrics* out, std::string* report);

/// Isolated probes of each layer's public functions, on the workload's own
/// intermediate keys and records (`sample` holds the raw input text the
/// probes map with the workload's mapper). Appends to `out`; false (after
/// printing why) if any probed call returned an error.
bool RunProbes(const Workload& w, const std::string& sample, Metrics* out);

}  // namespace jobbench
