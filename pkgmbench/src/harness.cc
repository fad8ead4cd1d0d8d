// pkgmbench_harness — the benchmark's in-process half. run.py calls one
// subcommand per step; each prints a single JSON object on stdout.
//
//   gen-kg         generate the offline workload's input KG
//   check-index    check a .pkgt against the input (+ kg layer timings)
//   check-train    Hits@10 of the exported model and the int8 store check
//   offline-layers kernel / sampler / hinge / store-writer timings
//   ps-probe       pull and push round trips against a pkgm_psd shard
//   serve          drive a serving daemon and check every reply
#include <cstdio>
#include <cstring>

#include "bench_util.h"

namespace pkgmbench {
int RunGenKg(const Flags& flags);
int RunCheckIndex(const Flags& flags);
int RunCheckTrain(const Flags& flags);
int RunOfflineLayers(const Flags& flags);
int RunPsProbe(const Flags& flags);
int RunServe(const Flags& flags);
}  // namespace pkgmbench

int main(int argc, char** argv) {
  using namespace pkgmbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: pkgmbench_harness <subcommand> [--flag value]...\n");
    return 2;
  }
  const Flags flags(argc, argv, 2);
  const struct {
    const char* name;
    int (*fn)(const Flags&);
  } commands[] = {{"gen-kg", RunGenKg},         {"check-index", RunCheckIndex},
                  {"check-train", RunCheckTrain}, {"offline-layers", RunOfflineLayers},
                  {"ps-probe", RunPsProbe},     {"serve", RunServe}};
  for (const auto& c : commands) {
    if (std::strcmp(argv[1], c.name) == 0) return c.fn(flags);
  }
  std::fprintf(stderr, "unknown subcommand %s\n", argv[1]);
  return 2;
}
