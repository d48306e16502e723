// PredictDDL serving benchmark.
//
// One process trains the predictor from scratch (GHN per dataset, simulated
// measurement campaign, regressor fit), serves it through rpc::Server on
// loopback, and drives one closed-loop traffic shape at it from at most
// nproc client threads, each with its own connection.  Latency is timed by
// the clients.  After the timed phase the served predictions are checked
// against computations made apart from the serving path (checks.hpp), and
// the last stdout line is one JSON object with the run's metrics.
//
//   perfbench --workload hot_repeat|cold_miss|rank_batch --seed N
//             --seconds S --trace 0|1 [--train-seed T] [--trace-dir DIR]
//
// --trace 1 replaces the end-to-end metrics with per-layer ones: half the
// time runs untraced, half runs through an instrumented copy of the client
// call path, then each layer's public functions are timed in-process.  The
// spans are written to DIR when the run ends.  README.md lists the metrics
// and the request make-up.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/predict_ddl.hpp"
#include "feedback/controller.hpp"
#include "graph/models.hpp"
#include "graph/models_transformer.hpp"
#include "parallel/parallel_for.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "serve/service.hpp"
#include "simulator/campaign.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace pddl;

// Taken during static initialisation, before main: setup_s runs from here.
const Clock::time_point g_process_start = Clock::now();

// ---- fixed make-up of every run (README.md "Request make-up") ----
// Cluster sizes every architecture is asked about, on its dataset's campaign
// server type, at batch kBatch.  Fixed, so rel_err_p50 is a property of the
// trained predictor and not of the traffic seed.
const int kClusterSizes[] = {2, 8, 16};
constexpr std::size_t kSizesPerGraph = std::size(kClusterSizes);
constexpr int kBatch = 64;
constexpr std::size_t kObserveEvery = 8;   // one observe per 8 predict calls
constexpr std::size_t kFrameGraphs = 4;    // rank_batch: graphs per frame
constexpr std::size_t kPlanFrames = 4096;  // rank_batch: frames per plan cycle
constexpr std::size_t kLogCapacity = 256;  // feedback observation log bound
// cold_miss / rank_batch cache: well under the 71-graph working set.
constexpr std::size_t kSmallCache = 16;
constexpr std::size_t kProbeRounds = 5;    // traced run: passes per probe
constexpr std::size_t kWindowCalls = 1000;  // latency_p99_ms window

// Reduced GHN budget (README.md): 32 DARTS graphs x 8 epochs per dataset.
core::PredictDdlOptions predictor_options(std::uint64_t train_seed) {
  core::PredictDdlOptions opts;
  opts.ghn.hidden_dim = 32;
  opts.ghn.mlp_hidden = 32;
  opts.ghn_trainer.corpus_size = 32;
  opts.ghn_trainer.epochs = 8;
  opts.ghn_trainer.batch_size = 8;
  opts.ghn_trainer.seed = train_seed;
  return opts;
}

enum class Shape { kHotRepeat, kColdMiss, kRankBatch };

struct Args {
  std::string workload;
  Shape shape = Shape::kHotRepeat;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t train_seed = 1;
  std::string trace_dir = ".bench_build/perfbench/traces";
};

// Client connections, never more than the cores this process may run on
// (what nproc reports).  The hit path is a few
// thread hand-offs per call, so a third client there only oversubscribes the
// cores the server's connection and dispatcher threads need; the GHN-bound
// cold path takes three; rank_batch frames already carry 12 requests each.
std::size_t client_threads(Shape shape) {
  const std::size_t want = shape == Shape::kColdMiss ? 3 : 2;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::min<std::size_t>(want, std::max(cores, 1));
}

// ---- request universe ----

struct GraphEntry {
  workload::DlWorkload workload;  // batch/epochs unused: identifies the graph
  graph::CompGraph graph;
};

struct Job {
  core::PredictRequest req;
  std::size_t graph = 0;  // index into Universe::graphs
  double expected_s = 0.0;
};

struct Universe {
  std::vector<GraphEntry> graphs;
  std::vector<Job> jobs;  // kSizesPerGraph consecutive jobs per graph
};

std::string campaign_sku(const std::string& dataset) {
  const sim::CampaignConfig cc;
  if (dataset == "tiny_imagenet") return cc.tiny_imagenet_sku;
  if (dataset == "wikitext103") return cc.wikitext_sku;
  return cc.cifar_sku;
}

Job make_job(const sim::DdlSimulator& sim, const GraphEntry& g,
             std::size_t gi, const std::string& sku, int servers, int batch) {
  Job j;
  j.req.workload = workload::DlWorkload(g.workload.model, g.workload.dataset,
                                        batch, sim::CampaignConfig{}.epochs);
  j.req.cluster = cluster::make_uniform_cluster(sku, servers);
  j.graph = gi;
  j.expected_s = sim.expected(j.req.workload, g.graph, j.req.cluster).total_s;
  return j;
}

// Every registered architecture (31 CNNs on cifar10 and tiny_imagenet, 9
// transformers on wikitext103) at every size of kClusterSizes on its
// campaign's server type.
Universe make_universe(const sim::DdlSimulator& sim) {
  Universe u;
  for (const auto& spec : graph::model_registry()) {
    for (const auto& ds : {workload::cifar10(), workload::tiny_imagenet()}) {
      u.graphs.push_back({workload::DlWorkload(spec.name, ds, kBatch, 10), {}});
    }
  }
  for (const auto& spec : graph::transformer_model_registry()) {
    u.graphs.push_back(
        {workload::DlWorkload(spec.name, workload::wikitext103(), kBatch, 10), {}});
  }
  for (std::size_t gi = 0; gi < u.graphs.size(); ++gi) {
    GraphEntry& g = u.graphs[gi];
    g.graph = g.workload.build_graph();
    for (const int n : kClusterSizes) {
      u.jobs.push_back(make_job(sim, g, gi, campaign_sku(g.workload.dataset.name),
                                n, kBatch));
    }
  }
  return u;
}

// Fixed side set predicted after the timed phase: each CNN dataset on the
// server type its campaign did NOT measure.
Universe cross_sku_universe(const sim::DdlSimulator& sim) {
  Universe u;
  for (const auto& spec : graph::model_registry()) {
    for (const auto& ds : {workload::cifar10(), workload::tiny_imagenet()}) {
      const std::string other =
          ds.name == "cifar10" ? campaign_sku("tiny_imagenet") : campaign_sku("cifar10");
      GraphEntry g{workload::DlWorkload(spec.name, ds, kBatch, 10), {}};
      g.graph = g.workload.build_graph();
      u.graphs.push_back(std::move(g));
      for (const int n : kClusterSizes) {
        u.jobs.push_back(make_job(sim, u.graphs.back(), u.graphs.size() - 1,
                                  other, n, kBatch));
      }
    }
  }
  return u;
}

// ---- client plans ----

// A client's cyclic list of calls; each call is a list of job indices (one
// for predict, a whole frame for predict_batch).
struct Plan {
  std::vector<std::vector<std::size_t>> calls;
  bool batch = false;
};

std::vector<Plan> make_plans(Shape shape, const Universe& u,
                             std::size_t clients, std::uint64_t seed) {
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 7);
  std::vector<Plan> plans(clients);
  if (shape == Shape::kHotRepeat) {
    // Every client re-queries the whole warmed universe in its own order.
    for (Plan& p : plans) {
      std::vector<std::size_t> order(u.jobs.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t j : order) p.calls.push_back({j});
    }
    return plans;
  }
  // Disjoint shares of the architectures, so no two connections ever ask
  // for the same graph and nothing hits or coalesces across clients.
  std::vector<std::size_t> graphs(u.graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) graphs[i] = i;
  std::shuffle(graphs.begin(), graphs.end(), rng);
  std::vector<std::vector<std::size_t>> shares(clients);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    shares[i % clients].push_back(graphs[i]);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    const std::vector<std::size_t>& share = shares[c];
    Plan& p = plans[c];
    if (shape == Shape::kColdMiss) {
      // One size per pass over the share: a graph comes back only after
      // every other graph of the share, long after the cache evicted it.
      for (std::size_t k = 0; k < kSizesPerGraph; ++k) {
        for (std::size_t g : share) p.calls.push_back({g * kSizesPerGraph + k});
      }
    } else {
      // Frames of kFrameGraphs graphs at all their cluster sizes, cut from
      // a stream of fresh shuffles of the share's two halves in turn: frame
      // make-up varies all run long instead of repeating one seed's
      // grouping, yet a graph comes back only after the other half has
      // passed, when the small cache no longer holds it.
      p.batch = true;
      const std::size_t half = share.size() / 2;
      std::vector<std::size_t> stream;
      while (stream.size() < kPlanFrames * kFrameGraphs) {
        for (const auto& [lo, hi] : {std::pair{std::size_t{0}, half},
                                    std::pair{half, share.size()}}) {
          std::vector<std::size_t> part(share.begin() + lo, share.begin() + hi);
          std::shuffle(part.begin(), part.end(), rng);
          stream.insert(stream.end(), part.begin(), part.end());
        }
      }
      for (std::size_t f = 0; f < kPlanFrames; ++f) {
        std::vector<std::size_t> frame;
        for (std::size_t k = 0; k < kFrameGraphs; ++k) {
          const std::size_t g = stream[f * kFrameGraphs + k];
          for (std::size_t s = 0; s < kSizesPerGraph; ++s) {
            frame.push_back(g * kSizesPerGraph + s);
          }
        }
        p.calls.push_back(std::move(frame));
      }
    }
  }
  return plans;
}

// ---- transports: the rpc client library, and an instrumented copy ----

struct PlainTransport {
  rpc::Client client;

  serve::ServeResult predict(const core::PredictRequest& r, std::uint64_t) {
    return client.predict(r);
  }
  std::vector<serve::ServeResult> predict_batch(
      const std::vector<core::PredictRequest>& rs, std::uint64_t) {
    return client.predict_batch(rs);
  }
  feedback::ObserveOutcome observe(const core::PredictRequest& r, double s,
                                   std::uint64_t) {
    return client.observe(r, s);
  }
};

// Same frames over the same kind of connection as rpc::Client::call, built
// from the rpc layer's public codec and socket functions with a span around
// each step: encode, socket round trip (server time included), decode.
class TracedTransport {
 public:
  TracedTransport(Tracer& tracer, std::uint16_t port)
      : tracer_(tracer), sock_(rpc::connect_tcp("127.0.0.1", port)) {
    rpc::set_recv_timeout(sock_, 30000.0);
  }

  serve::ServeResult predict(const core::PredictRequest& r, std::uint64_t id) {
    rpc::Request req;
    req.op = rpc::Op::kPredict;
    req.reqs.push_back(r);
    rpc::Response resp = call(req, "client.predict", id);
    PDDL_CHECK(resp.results.size() == 1, "predict returned ",
               resp.results.size(), " results");
    return std::move(resp.results.front());
  }
  std::vector<serve::ServeResult> predict_batch(
      const std::vector<core::PredictRequest>& rs, std::uint64_t id) {
    rpc::Request req;
    req.op = rpc::Op::kPredictBatch;
    req.reqs = rs;
    rpc::Response resp = call(req, "client.predict_batch", id);
    PDDL_CHECK(resp.results.size() == rs.size(), "predict_batch returned ",
               resp.results.size(), " results");
    return std::move(resp.results);
  }
  feedback::ObserveOutcome observe(const core::PredictRequest& r, double s,
                                   std::uint64_t id) {
    rpc::Request req;
    req.op = rpc::Op::kObserve;
    req.measured_s = s;
    req.reqs.push_back(r);
    return call(req, "client.observe", id).observe;
  }

 private:
  rpc::Response call(const rpc::Request& req, const char* name,
                     std::uint64_t id) {
    ScopedSpan root(tracer_, name, 0, id);
    std::string frame;
    {
      ScopedSpan s(tracer_, "rpc.encode", root.id(), id);
      frame = rpc::encode_frame(rpc::encode_request(req));
    }
    std::string full;
    {
      ScopedSpan s(tracer_, "rpc.socket", root.id(), id);
      rpc::send_all(sock_, frame.data(), frame.size());
      char prefix[rpc::kFramePrefixBytes];
      PDDL_CHECK(rpc::recv_exact(sock_, prefix, sizeof(prefix)) ==
                     rpc::RecvOutcome::kOk,
                 "rpc response missing");
      const std::uint32_t body = rpc::decode_frame_prefix(prefix);
      full.assign(rpc::kFrameOverheadBytes + body, '\0');
      std::memcpy(full.data(), prefix, sizeof(prefix));
      PDDL_CHECK(rpc::recv_exact(sock_, full.data() + sizeof(prefix),
                                 full.size() - sizeof(prefix)) ==
                     rpc::RecvOutcome::kOk,
                 "rpc response truncated");
    }
    rpc::Response resp;
    {
      ScopedSpan s(tracer_, "rpc.decode", root.id(), id);
      resp = rpc::decode_response(rpc::decode_frame(full));
    }
    PDDL_CHECK(resp.status == rpc::RpcStatus::kOk, "rpc ", rpc::to_string(req.op),
               " failed: ", rpc::to_string(resp.status), " ", resp.message);
    return resp;
  }

  Tracer& tracer_;
  rpc::Socket sock_;
};

// ---- the timed phase ----

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct ClientStats {
  std::vector<double> call_ms;     // predict / predict_batch calls
  std::vector<double> call_start;  // their start times, steady-clock seconds
  std::vector<double> observe_ms;  // observe calls
  OpCount predict, batch, observe;
  std::uint64_t predictions_ok = 0;  // each result of a frame counts
  std::uint64_t observes_ok = 0;
  std::uint64_t hits = 0;  // successful predictions served from the cache
  std::vector<double> served;  // first served value per job (NaN: none)
  std::uint64_t repeat_mismatches = 0;

  void note_served(std::size_t job, double v) {
    double& first = served[job];
    if (std::isnan(first)) {
      first = v;
    } else if (std::memcmp(&first, &v, sizeof v) != 0) {
      ++repeat_mismatches;
    }
  }
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <class Transport>
void drive(Transport& t, const Plan& plan, const Universe& u,
           const sim::DdlSimulator& sim, Rng rng, std::uint64_t id_base,
           Clock::time_point end, ClientStats& st) {
  std::vector<core::PredictRequest> frame;
  std::uint64_t id = id_base;
  std::size_t since_observe = 0;
  for (std::size_t i = 0; Clock::now() < end; i = (i + 1) % plan.calls.size()) {
    const std::vector<std::size_t>& call = plan.calls[i];
    OpCount& count = plan.batch ? st.batch : st.predict;
    ++count.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      std::vector<serve::ServeResult> results;
      if (plan.batch) {
        frame.clear();
        for (std::size_t j : call) frame.push_back(u.jobs[j].req);
        results = t.predict_batch(frame, ++id);
      } else {
        results.push_back(t.predict(u.jobs[call[0]].req, ++id));
      }
      st.call_ms.push_back(ms_since(t0));
      st.call_start.push_back(
          std::chrono::duration<double>(t0.time_since_epoch()).count());
      bool all_ok = true;
      for (std::size_t k = 0; k < results.size(); ++k) {
        if (!results[k].ok()) {
          all_ok = false;
          continue;
        }
        ++st.predictions_ok;
        if (results[k].cache_hit) ++st.hits;
        st.note_served(call[k], results[k].response.predicted_time_s);
      }
      if (!all_ok) ++count.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "call failed: %s\n", e.what());
      ++count.failed;
    }
    if (++since_observe < kObserveEvery) continue;
    // Report a truthful, noisy measured time for the job just predicted.
    since_observe = 0;
    const Job& job = u.jobs[call[0]];
    const double measured =
        sim.run(job.req.workload, u.graphs[job.graph].graph, job.req.cluster, rng)
            .total_s;
    ++st.observe.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      const feedback::ObserveOutcome o = t.observe(job.req, measured, ++id);
      st.observe_ms.push_back(ms_since(t0));
      if (o.accepted) {
        ++st.observes_ok;
      } else {
        ++st.observe.failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "observe failed: %s\n", e.what());
      ++st.observe.failed;
    }
  }
}

struct Phase {
  std::vector<ClientStats> clients;
  Clock::time_point start;
  double wall_s = 0.0;
};

// Connects every client first, then releases them together for `seconds`.
template <class MakeTransport>
Phase run_phase(const std::vector<Plan>& plans, const Universe& u,
                const sim::DdlSimulator& sim, std::uint64_t seed,
                double seconds, MakeTransport make) {
  using T = decltype(make());
  std::vector<std::optional<T>> transports(plans.size());
  for (auto& t : transports) t.emplace(make());
  Phase ph;
  ph.clients.resize(plans.size());
  for (ClientStats& c : ph.clients) {
    c.served.assign(u.jobs.size(), std::nan(""));
    c.call_ms.reserve(1 << 18);
    c.call_start.reserve(1 << 18);
  }
  std::atomic<bool> go{false};
  Clock::time_point end;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      drive(*transports[c], plans[c], u, sim, Rng(seed * 1000003 + c),
            static_cast<std::uint64_t>(c + 1) << 40, end, ph.clients[c]);
    });
  }
  ph.start = Clock::now();
  end = ph.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  ph.wall_s = std::chrono::duration<double>(Clock::now() - ph.start).count();
  return ph;
}

// ---- statistics ----

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? std::nan("") : s / static_cast<double>(v.size());
}

// Median of the p99s of consecutive windows of at least kWindowCalls calls
// in start order, so one burst of interference from outside the process
// moves one window rather than the reported tail.  Each window keeps ten
// samples beyond its p99.
double windowed_p99(std::vector<std::pair<double, double>> calls) {
  std::sort(calls.begin(), calls.end());
  const std::size_t windows = std::max<std::size_t>(1, calls.size() / kWindowCalls);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> ms;
    for (std::size_t i = w * calls.size() / windows;
         i < (w + 1) * calls.size() / windows; ++i) {
      ms.push_back(calls[i].second);
    }
    p99s.push_back(quantile(ms, 0.99));
  }
  return quantile(p99s, 0.5);
}

struct Totals {
  std::vector<double> observe_ms;
  std::vector<std::pair<double, double>> calls;  // (start, ms) of each call
  OpCount predict, batch, observe;
  std::uint64_t predictions_ok = 0, observes_ok = 0, hits = 0;
  std::vector<double> served;
  std::uint64_t repeat_mismatches = 0;
};

void add(Totals& t, const Phase& ph) {
  for (const ClientStats& c : ph.clients) {
    for (std::size_t i = 0; i < c.call_ms.size(); ++i) {
      t.calls.emplace_back(c.call_start[i], c.call_ms[i]);
    }
    t.observe_ms.insert(t.observe_ms.end(), c.observe_ms.begin(),
                        c.observe_ms.end());
    for (auto [dst, src] : {std::pair{&t.predict, &c.predict},
                            std::pair{&t.batch, &c.batch},
                            std::pair{&t.observe, &c.observe}}) {
      dst->attempted += src->attempted;
      dst->failed += src->failed;
    }
    t.predictions_ok += c.predictions_ok;
    t.observes_ok += c.observes_ok;
    t.hits += c.hits;
    t.repeat_mismatches += c.repeat_mismatches;
    if (t.served.empty()) t.served.assign(c.served.size(), std::nan(""));
    for (std::size_t j = 0; j < c.served.size(); ++j) {
      const double v = c.served[j];
      if (std::isnan(v)) continue;
      if (std::isnan(t.served[j])) {
        t.served[j] = v;
      } else if (std::memcmp(&t.served[j], &v, sizeof v) != 0) {
        ++t.repeat_mismatches;
      }
    }
  }
}

// ---- outputs checked apart from the serving path ----

// f64 autograd-tape prediction of each job: Ghn2::embedding →
// assemble_features → InferenceEngine::predict.
std::vector<double> tape_oracle(core::PredictDdl& pddl, const Universe& u,
                                const std::vector<std::size_t>& jobs) {
  std::vector<std::size_t> graphs;
  for (std::size_t j : jobs) graphs.push_back(u.jobs[j].graph);
  std::sort(graphs.begin(), graphs.end());
  graphs.erase(std::unique(graphs.begin(), graphs.end()), graphs.end());
  std::vector<Vector> emb(u.graphs.size());
  parallel_for(pddl.pool(), 0, graphs.size(), [&](std::size_t i) {
    const GraphEntry& g = u.graphs[graphs[i]];
    emb[graphs[i]] =
        pddl.registry().model(g.workload.dataset.name)->embedding(g.graph);
  });
  std::vector<double> out;
  for (std::size_t j : jobs) {
    const Job& job = u.jobs[j];
    const Vector feats = pddl.features().assemble_features(
        emb[job.graph], job.req.workload, job.req.cluster);
    out.push_back(pddl.engine_if_ready(job.req.workload.dataset.name)
                      ->predict(feats));
  }
  return out;
}

// ---- setup ----

struct SetupTimes {
  double ghn_train_s = 0.0;
  double campaign_s = 0.0;
  double fit_s = 0.0;
  double warm_up_s = 0.0;
};

// PredictDdl::train_offline's three steps, timed one by one.
void train_predictor(core::PredictDdl& pddl, const sim::DdlSimulator& sim,
                     ThreadPool& pool, SetupTimes& t) {
  for (const auto& ds : {workload::cifar10(), workload::tiny_imagenet(),
                         workload::wikitext103()}) {
    Stopwatch sw;
    pddl.ensure_ghn(ds);
    t.ghn_train_s += sw.seconds();
    sim::CampaignConfig cc;
    cc.include_cifar10 = ds.name == "cifar10";
    cc.include_tiny_imagenet = ds.name == "tiny_imagenet";
    cc.include_wikitext103 = ds.name == "wikitext103";
    sw.reset();
    const auto measurements = sim::run_campaign(sim, cc, pool);
    t.campaign_s += sw.seconds();
    sw.reset();
    pddl.fit_predictor(ds.name, measurements);
    t.fit_s += sw.seconds();
  }
}

serve::ServiceConfig service_config(Shape shape) {
  serve::ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.max_batch = kFrameGraphs * kSizesPerGraph;  // a frame fits a dispatch
  cfg.precision = ghn::Precision::kF32;
  if (shape != Shape::kHotRepeat) cfg.cache_capacity = kSmallCache;
  return cfg;
}

std::vector<workload::DlWorkload> graph_workloads(const Universe& u) {
  std::vector<workload::DlWorkload> ws;
  for (const GraphEntry& g : u.graphs) ws.push_back(g.workload);
  return ws;
}

// ---- traced run: in-process layer probes ----

// Times each layer's public function on the warm hit path and the GHN miss
// path, over every job of the universe, recording one span per call.
void run_probes(core::PredictDdl& pddl, const sim::DdlSimulator& sim,
                const Universe& u, Tracer& tracer,
                std::map<std::string, double>& m) {
  serve::ServiceConfig cfg = service_config(Shape::kHotRepeat);
  serve::PredictionService svc(pddl, cfg);
  svc.warm_up(graph_workloads(u));
  feedback::FeedbackController fb(svc, pddl);
  rpc::Server server(svc);
  server.start();
  std::optional<rpc::Client> client(std::in_place, "127.0.0.1", server.port());

  serve::ShardedEmbeddingCache cache(cfg.cache_shards, cfg.cache_capacity);
  std::map<std::string, std::shared_ptr<const ghn::GhnInference>> engines;
  for (const GraphEntry& g : u.graphs) {
    auto& e = engines[g.workload.dataset.name];
    if (e == nullptr) e = pddl.registry().inference(g.workload.dataset.name, cfg.precision);
    cache.put(g.workload.dataset.name, ghn::structural_fingerprint(g.graph),
              e->source_checksum(), e->embedding(g.graph));
  }
  std::vector<std::string> response_frames;
  for (const Job& j : u.jobs) {
    rpc::Response resp;
    resp.op = rpc::Op::kPredict;
    resp.results.push_back(svc.predict(j.req));
    response_frames.push_back(rpc::encode_frame(rpc::encode_response(resp)));
  }

  Rng rng(17);
  double sink = 0.0;
  std::vector<double> frame_bytes;
  std::uint64_t id = 0;
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    for (std::size_t ji = 0; ji < u.jobs.size(); ++ji) {
      const Job& j = u.jobs[ji];
      const std::string& ds = j.req.workload.dataset.name;
      const ghn::GhnInference& engine = *engines[ds];
      const auto regressor = pddl.engine_if_ready(ds);
      ++id;
      {
        ScopedSpan root(tracer, "probe.hit_path", 0, id);
        graph::CompGraph g;
        {
          ScopedSpan s(tracer, "workload.build_graph", root.id(), id);
          g = j.req.workload.build_graph();
        }
        std::uint64_t fp = 0;
        {
          ScopedSpan s(tracer, "ghn.fingerprint", root.id(), id);
          fp = ghn::structural_fingerprint(g);
        }
        std::optional<Vector> emb;
        {
          ScopedSpan s(tracer, "serve.cache_get", root.id(), id);
          emb = cache.get(ds, fp, engine.source_checksum());
        }
        PDDL_CHECK(emb.has_value(), "probe cache lost ", j.req.workload.key());
        Vector feats;
        {
          ScopedSpan s(tracer, "core.assemble_features", root.id(), id);
          feats = pddl.features().assemble_features(*emb, j.req.workload,
                                                    j.req.cluster);
        }
        {
          ScopedSpan s(tracer, "regress.predict", root.id(), id);
          sink += regressor->predict(feats);
        }
      }
      {
        ScopedSpan s(tracer, "serve.inproc_predict", 0, ++id);
        sink += svc.predict(j.req).response.predicted_time_s;
      }
      {
        ScopedSpan s(tracer, "rpc.client_predict", 0, ++id);
        sink += client->predict(j.req).response.predicted_time_s;
      }
      {
        rpc::Request req;
        req.op = rpc::Op::kPredict;
        req.reqs.push_back(j.req);
        std::string frame;
        {
          ScopedSpan s(tracer, "rpc.encode_predict", 0, ++id);
          frame = rpc::encode_frame(rpc::encode_request(req));
        }
        frame_bytes.push_back(static_cast<double>(frame.size()));
      }
      {
        ScopedSpan s(tracer, "rpc.decode_result", 0, ++id);
        sink += rpc::decode_response(rpc::decode_frame(response_frames[ji]))
                    .results.size();
      }
      const double measured =
          sim.run(j.req.workload, u.graphs[j.graph].graph, j.req.cluster, rng)
              .total_s;
      {
        ScopedSpan s(tracer, "feedback.observe", 0, ++id);
        sink += fb.observe(j.req, measured).predicted_s;
      }
    }
  }
  // GHN miss path: one f32 forward pass per graph, then frame-width batches
  // of one dataset's graphs.
  double nodes = 0.0;
  std::map<std::string, std::vector<const graph::CompGraph*>> by_dataset;
  for (const GraphEntry& g : u.graphs) {
    by_dataset[g.workload.dataset.name].push_back(&g.graph);
  }
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    for (const GraphEntry& g : u.graphs) {
      const ghn::GhnInference& engine = *engines[g.workload.dataset.name];
      {
        ScopedSpan s(tracer, "ghn.embed", 0, ++id);
        sink += engine.embedding(g.graph)[0];
      }
      nodes += static_cast<double>(g.graph.num_nodes());
    }
  }
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    for (const auto& [ds, gs] : by_dataset) {
      for (std::size_t b = 0; b + kFrameGraphs <= gs.size(); b += kFrameGraphs) {
        std::vector<Vector> outs(kFrameGraphs);
        std::vector<Vector*> out_ptrs;
        for (Vector& o : outs) out_ptrs.push_back(&o);
        {
          ScopedSpan s(tracer, "ghn.embed_batch", 0, ++id);
          engines[ds]->embed_batch_into(
              std::span<const graph::CompGraph* const>(gs.data() + b, kFrameGraphs),
              std::span<Vector* const>(out_ptrs.data(), out_ptrs.size()));
        }
        sink += outs[0][0];
      }
    }
  }
  client.reset();
  server.stop();
  PDDL_CHECK(std::isfinite(sink), "probe outputs are not finite");

  auto self = self_times_us(tracer.collect());
  auto med = [&](const char* name) { return quantile(self[name], 0.5); };
  m["rpc.encode_predict_us"] = med("rpc.encode_predict");
  m["rpc.decode_result_us"] = med("rpc.decode_result");
  m["rpc.predict_frame_bytes"] = mean(frame_bytes);
  m["rpc.wire_us"] = med("rpc.client_predict") - med("serve.inproc_predict");
  m["serve.inproc_predict_us"] = med("serve.inproc_predict");
  m["serve.cache_get_us"] = med("serve.cache_get");
  m["workload.build_graph_us"] = mean(self["workload.build_graph"]);
  m["ghn.fingerprint_us"] = med("ghn.fingerprint");
  m["ghn.embed_us"] = mean(self["ghn.embed"]);
  const std::vector<double>& embeds = self["ghn.embed"];
  m["ghn.embed_ns_per_node"] =
      1e3 * mean(embeds) * static_cast<double>(embeds.size()) / nodes;
  m["ghn.embed_batch_us_per_graph"] = mean(self["ghn.embed_batch"]) / kFrameGraphs;
  m["core.assemble_features_us"] = med("core.assemble_features");
  m["regress.predict_us"] = med("regress.predict");
  m["feedback.observe_us"] = med("feedback.observe");
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[320];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

void write_spans(const std::string& dir, const std::string& stem,
                 const std::vector<Span>& spans) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + stem + ".jsonl";
  std::ofstream f(path);
  PDDL_CHECK(f.good(), "cannot write ", path);
  for (const Span& s : spans) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
               path.c_str());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Args& args) {
  ThreadPool pool;
  const sim::DdlSimulator simulator;
  core::PredictDdl pddl(simulator, pool, predictor_options(args.train_seed));
  SetupTimes setup;
  train_predictor(pddl, simulator, pool, setup);

  const Universe universe = make_universe(simulator);
  const std::size_t clients = client_threads(args.shape);
  const std::vector<Plan> plans =
      make_plans(args.shape, universe, clients, args.seed);

  serve::PredictionService service(pddl, service_config(args.shape));
  feedback::FeedbackConfig fb_cfg;
  fb_cfg.log_capacity = kLogCapacity;
  feedback::FeedbackController fb(service, pddl, fb_cfg);
  rpc::Server server(service);
  server.attach_feedback(&fb);
  server.start();
  const std::uint16_t port = server.port();
  if (args.shape == Shape::kHotRepeat) {
    Stopwatch sw;
    service.warm_up(graph_workloads(universe));
    setup.warm_up_s = sw.seconds();
  }

  auto plain = [port] { return PlainTransport{rpc::Client("127.0.0.1", port)}; };
  Tracer tracer;
  Totals totals;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase untraced =
      run_phase(plans, universe, simulator, args.seed, phase_s, plain);
  add(totals, untraced);
  std::optional<Phase> traced;
  if (args.trace) {
    traced = run_phase(plans, universe, simulator, args.seed + 1, phase_s,
                       [&] { return TracedTransport(tracer, port); });
    add(totals, *traced);
  }
  const double setup_s =
      std::chrono::duration<double>(untraced.start - g_process_start).count();

  // Fixed cross-server-type side set, after the timed phase.
  const Universe xsku = cross_sku_universe(simulator);
  OpCount side;
  std::uint64_t side_ok = 0;
  std::vector<double> xsku_err;
  {
    rpc::Client c("127.0.0.1", port);
    for (const Job& j : xsku.jobs) {
      ++side.attempted;
      const serve::ServeResult r = c.predict(j.req);
      if (!r.ok()) {
        ++side.failed;
        continue;
      }
      ++side_ok;
      xsku_err.push_back(std::fabs(r.response.predicted_time_s - j.expected_s) /
                         j.expected_s);
    }
  }
  server.stop();
  fb.wait_idle();
  const serve::MetricsSnapshot sm = service.metrics();

  // Evidence for the checks, over the distinct jobs served.
  Evidence ev;
  std::vector<std::size_t> served_jobs;
  for (std::size_t j = 0; j < totals.served.size(); ++j) {
    if (!std::isnan(totals.served[j])) served_jobs.push_back(j);
  }
  for (std::size_t j : served_jobs) {
    ev.served.push_back(totals.served[j]);
    ev.expected.push_back(universe.jobs[j].expected_s);
  }
  ev.oracle = tape_oracle(pddl, universe, served_jobs);
  if (args.shape == Shape::kRankBatch) {
    serve::ServiceConfig lone_cfg = service_config(args.shape);
    lone_cfg.cache_enabled = false;
    lone_cfg.dispatcher_threads = 1;
    serve::PredictionService lone(pddl, lone_cfg);
    for (std::size_t j : served_jobs) {
      ev.lone.push_back(lone.predict(universe.jobs[j].req).response.predicted_time_s);
    }
  }
  ev.repeat_mismatches = totals.repeat_mismatches;
  ev.client_successes = totals.predictions_ok + totals.observes_ok + side_ok;
  ev.completed = sm.completed;
  ev.cache_hits = sm.cache_hits;
  ev.cache_misses = sm.cache_misses;
  ev.reuse_hits = sm.reuse_hits;
  ev.log_size = fb.log().size();
  ev.log_capacity = fb.log().capacity();
  ev.observations = sm.observations_ingested;
  ev.require_log_overflow = args.shape == Shape::kHotRepeat;

  bool correct = true;
  for (const CheckResult& r : run_checks(ev)) {
    correct = correct && r.passed;
    std::printf("check %-22s %s  %s\n", r.name.c_str(), r.passed ? "pass" : "FAIL",
                r.detail.c_str());
  }
  for (const CheckResult& r : self_test(ev)) {
    correct = correct && r.passed;
    std::printf("self-test %-18s %s  %s\n", r.name.c_str(),
                r.passed ? "caught" : "MISSED", r.detail.c_str());
  }

  std::printf(
      "counts: predict %llu/%llu failed, predict_batch %llu/%llu failed, "
      "observe %llu/%llu failed, cross-sku predict %llu/%llu failed\n",
      (unsigned long long)totals.predict.failed,
      (unsigned long long)totals.predict.attempted,
      (unsigned long long)totals.batch.failed,
      (unsigned long long)totals.batch.attempted,
      (unsigned long long)totals.observe.failed,
      (unsigned long long)totals.observe.attempted,
      (unsigned long long)side.failed, (unsigned long long)side.attempted);
  std::printf(
      "counts: predictions ok %llu (client-seen hits %llu); service cache "
      "hits %llu misses %llu; embed batches %llu graphs %llu coalesced %llu; "
      "refits started %llu; %zu distinct requests served, %zu clients\n",
      (unsigned long long)totals.predictions_ok, (unsigned long long)totals.hits,
      (unsigned long long)sm.cache_hits, (unsigned long long)sm.cache_misses,
      (unsigned long long)sm.embed_batches,
      (unsigned long long)sm.embed_batch_graphs,
      (unsigned long long)sm.embed_coalesced,
      (unsigned long long)sm.refits_started, served_jobs.size(), clients);

  std::vector<double> rel_err;
  for (std::size_t i = 0; i < ev.served.size(); ++i) {
    rel_err.push_back(std::fabs(ev.served[i] - ev.expected[i]) / ev.expected[i]);
  }
  std::vector<Metric> out;
  if (!args.trace) {
    std::vector<double> call_ms;
    for (const auto& [start, ms] : totals.calls) call_ms.push_back(ms);
    out = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"predictions_per_s",
         static_cast<double>(totals.predictions_ok) / untraced.wall_s, "1/s"},
        {"latency_p50_ms", quantile(call_ms, 0.5), "ms"},
        {"latency_p99_ms", windowed_p99(totals.calls), "ms"},
        {"observe_p50_ms", quantile(totals.observe_ms, 0.5), "ms"},
        {"rel_err_p50", quantile(rel_err, 0.5), "ratio"},
        {"xsku_rel_err_p50", quantile(xsku_err, 0.5), "ratio"},
    };
  } else {
    std::map<std::string, double> m;
    std::vector<double> a_ms, b_ms;
    for (const ClientStats& c : untraced.clients) a_ms.insert(a_ms.end(), c.call_ms.begin(), c.call_ms.end());
    for (const ClientStats& c : traced->clients) b_ms.insert(b_ms.end(), c.call_ms.begin(), c.call_ms.end());
    const std::vector<Span> traffic_spans = tracer.collect();
    Tracer probe_tracer;
    run_probes(pddl, simulator, universe, probe_tracer, m);
    std::vector<Span> all = traffic_spans;
    const std::vector<Span> probe_spans = probe_tracer.collect();
    all.insert(all.end(), probe_spans.begin(), probe_spans.end());
    write_spans(args.trace_dir, "trace_" + args.workload, all);
    const double miss_base = static_cast<double>(sm.cache_misses);
    out = {
        {"rpc.encode_predict_us", m["rpc.encode_predict_us"], "us"},
        {"rpc.decode_result_us", m["rpc.decode_result_us"], "us"},
        {"rpc.predict_frame_bytes", m["rpc.predict_frame_bytes"], "bytes"},
        {"rpc.wire_us", m["rpc.wire_us"], "us"},
        {"serve.inproc_predict_us", m["serve.inproc_predict_us"], "us"},
        {"serve.cache_get_us", m["serve.cache_get_us"], "us"},
        {"serve.queue_ms_mean", sm.queue.mean_ms, "ms"},
        {"serve.cache_hit_ratio",
         static_cast<double>(totals.hits) / static_cast<double>(totals.predictions_ok),
         "ratio"},
        {"serve.dispatch_mean_size", sm.mean_batch_size(), "requests"},
        {"serve.embed_batch_mean_width", sm.mean_embed_batch_width(), "graphs"},
        {"serve.coalesced_ratio",
         miss_base > 0 ? static_cast<double>(sm.embed_coalesced) / miss_base : 0.0,
         "ratio"},
        {"workload.build_graph_us", m["workload.build_graph_us"], "us"},
        {"ghn.fingerprint_us", m["ghn.fingerprint_us"], "us"},
        {"ghn.embed_us", m["ghn.embed_us"], "us"},
        {"ghn.embed_ns_per_node", m["ghn.embed_ns_per_node"], "ns"},
        {"ghn.embed_batch_us_per_graph", m["ghn.embed_batch_us_per_graph"], "us"},
        {"ghn.arena_hwm_bytes", static_cast<double>(sm.arena_hwm_bytes), "bytes"},
        {"core.assemble_features_us", m["core.assemble_features_us"], "us"},
        {"regress.predict_us", m["regress.predict_us"], "us"},
        {"feedback.observe_us", m["feedback.observe_us"], "us"},
        {"feedback.log_records", static_cast<double>(fb.log().size()), "count"},
        {"setup.ghn_train_s", setup.ghn_train_s, "s"},
        {"setup.campaign_s", setup.campaign_s, "s"},
        {"setup.fit_s", setup.fit_s, "s"},
        {"setup.warm_up_s", setup.warm_up_s, "s"},
        {"trace.overhead_us", 1e3 * (quantile(b_ms, 0.5) - quantile(a_ms, 0.5)), "us"},
    };
    std::printf("per-layer bases: cache_hit_ratio over %llu predictions, "
                "coalesced_ratio over %llu misses\n",
                (unsigned long long)totals.predictions_ok,
                (unsigned long long)sm.cache_misses);
  }
  const std::uint64_t attempted = totals.predict.attempted +
                                  totals.batch.attempted +
                                  totals.observe.attempted + side.attempted;
  const std::uint64_t failed = totals.predict.failed + totals.batch.failed +
                               totals.observe.failed + side.failed;
  std::printf("%s\n", json_result(correct, attempted, failed, out).c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
      if (v == "hot_repeat") {
        a.shape = Shape::kHotRepeat;
      } else if (v == "cold_miss") {
        a.shape = Shape::kColdMiss;
      } else if (v == "rank_batch") {
        a.shape = Shape::kRankBatch;
      } else {
        return false;
      }
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--train-seed") {
      a.train_seed = std::stoull(v);
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if ((argc - 1) % 2 != 0 || !perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload hot_repeat|cold_miss|rank_batch "
                 "--seed N --seconds S --trace 0|1 [--train-seed T] "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
