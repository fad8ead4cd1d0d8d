// pkgmbench_netd — the serving daemon of both workloads. It stands
// up exactly what `pkgm_netd --infer 1 --store PATH --store-dtype int8`
// does (same synthetic PKG, pre-training, int8 mmap store and downstream
// models, assembled from KnowledgeServer, NetServer and InferenceEngine),
// with two differences, both fixed here:
//   - the condensed-vector cache holds kCacheEntries, so the 1000-item
//     catalog is 4x the cache and cold keys mostly miss it, while the
//     200 hot keys (src/serve_load.cc) fit in it;
//   - the I/O backend is pinned to epoll. Under the default io_uring
//     backend the completion coalescing of src/net/uring_backend.cc holds
//     responses for up to 2 ms and each instance settles into a fast or a
//     slow mode for its lifetime, so the inference path behind the
//     transport could not be measured steadily (README.md, Steadiness).
//
//   pkgmbench_netd --seed N --store PATH --port-file PATH
//
// Workers and I/O threads keep pkgm_netd's defaults (2 each).
//
// Binds an ephemeral loopback port, prints one "ready" line with the user
// and class counts, and serves until SIGINT/SIGTERM, then drains.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "infer/engine.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "net/net_server.h"
#include "serve/knowledge_server.h"
#include "serve_common.h"
#include "store/model_registry.h"

namespace {

std::atomic<int> g_signal{0};
void HandleSignal(int signum) { g_signal.store(signum); }

constexpr size_t kCacheEntries = 250;
constexpr const char* kIoBackend = "epoll";

}  // namespace

int main(int argc, char** argv) {
  using namespace pkgm;
  const pkgmbench::Flags flags(argc, argv, 1);
  const uint64_t seed = flags.U64("seed", 2021);
  const std::string store_path = flags.Need("store");
  const std::string port_file = flags.Need("port-file");

  tasks::PretrainedPkgm p =
      tasks::BuildAndPretrain(tool::ServePipelineOptions(seed));
  store::ModelRegistry registry;
  auto gen = tool::ExportGeneration(*p.model, *p.services, store_path,
                                    store::StoreDtype::kInt8, 1);
  if (gen == nullptr) return 1;
  registry.Publish(gen->source, gen->provider, gen->info);

  serve::KnowledgeServerOptions sopt;
  sopt.cache_capacity = kCacheEntries;
  serve::KnowledgeServer server(&registry, sopt);

  infer::InferPipelineOptions iopt;
  iopt.seed = seed + 100;
  infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
  const uint32_t num_users = bundle.num_users;
  const uint32_t num_classes = bundle.num_classes;
  infer::InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  infer::InferenceEngine engine(&models, &registry, std::move(bundle.titles));
  server.AttachInferExecutor(&engine);
  server.Start();

  net::NetServerOptions nopt;
  nopt.io_backend = kIoBackend;
  net::NetServer net_server(&server, nopt);
  Status started = net_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "pkgmbench_netd: %s\n", started.ToString().c_str());
    server.Stop();
    return 1;
  }
  std::printf("ready: port %u, %u users, %u classes, %s i/o\n",
              net_server.port(), num_users, num_classes,
              net_server.net_counters().io_backend.c_str());
  std::fflush(stdout);
  const std::string tmp = port_file + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
    std::fprintf(f, "%u\n", net_server.port());
    std::fclose(f);
    std::rename(tmp.c_str(), port_file.c_str());
  }

  struct sigaction sa {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (g_signal.load() == 0) ::usleep(20000);
  net_server.Stop();
  server.Stop();
  return 0;
}
