// traced_wordcount — the observability quick-start (ISSUE acceptance run):
// run word count on an 8-server emulated cluster with tracing enabled, then
// emit every artifact the obs layer produces:
//
//   1. a Chrome trace-event JSON (load it at https://ui.perfetto.dev or
//      chrome://tracing) — validated in-process before it is written,
//   2. the per-job summary (Fig. 6-style map-locality breakdown, bytes per
//      storage layer, exact task-latency quantiles) on stdout,
//   3. the Prometheus text exposition of the cluster metrics on stdout.
//
// Usage: traced_wordcount [trace_out.json]
// Exit code is non-zero if the job fails or the trace does not validate, so
// CI can run this binary as the observability smoke test.
#include <cstdio>
#include <string>

#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "obs/summary.h"
#include "obs/trace.h"
#include "workload/generators.h"

using namespace eclipse;

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "wordcount_trace.json";

  auto& tracer = obs::Tracer::Global();
  tracer.Start();

  mr::ClusterOptions options;
  options.num_servers = 8;
  options.block_size = 4_KiB;
  options.cache_capacity = 32_MiB;
  mr::Cluster cluster(options);

  Rng rng(42);
  workload::TextOptions topts;
  topts.target_bytes = 200_KiB;
  Status up = cluster.dfs().Upload("corpus", workload::GenerateText(rng, topts));
  if (!up.ok()) {
    std::fprintf(stderr, "upload failed: %s\n", up.ToString().c_str());
    return 1;
  }

  // Two runs of the same input: the second demonstrates the paper's memory
  // locality class (iCache hits) in the trace and the summary.
  auto cold = cluster.Run(apps::WordCountJob("wc-cold", "corpus"));
  auto warm = cluster.Run(apps::WordCountJob("wc-warm", "corpus"));
  tracer.Stop();
  if (!cold.status.ok() || !warm.status.ok()) {
    std::fprintf(stderr, "job failed: %s%s\n", cold.status.ToString().c_str(),
                 warm.status.ToString().c_str());
    return 1;
  }

  // Validate before writing — a malformed export is a bug, not an artifact.
  Status valid = obs::ValidateChromeTrace(tracer.Snapshot());
  if (!valid.ok()) {
    std::fprintf(stderr, "trace failed validation: %s\n", valid.ToString().c_str());
    return 1;
  }
  Status wrote = tracer.WriteChromeTrace(trace_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", wrote.ToString().c_str());
    return 1;
  }

  auto jobs = obs::Summarize(tracer.Snapshot());
  if (jobs.size() != 2) {
    std::fprintf(stderr, "expected 2 job spans in the capture, found %zu\n", jobs.size());
    return 1;
  }
  // The warm run must see memory locality — the observable effect of the
  // distributed in-memory cache this whole design exists for.
  if (jobs[1].maps_memory == 0) {
    std::fprintf(stderr, "warm run had no memory-local map tasks\n");
    return 1;
  }

  std::printf("wrote %s (%zu events; load it in Perfetto)\n\n", trace_path.c_str(),
              tracer.Snapshot().size());
  std::printf("%s\n", obs::RenderJobSummaries(jobs).c_str());
  std::printf("--- prometheus exposition ---\n%s", cluster.MetricsPrometheus().c_str());
  return 0;
}
