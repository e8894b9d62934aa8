// End-to-end benchmark harness for secure prediction on the Fig-4 network
// (784-128-128-10, scheme s(2,2,2,2), ring l=64). See README.md for the
// workloads, the metrics and why they were chosen.
//
// The harness drives the library only through its public API and measures
// from the outside: wall clocks around calls, a Channel decorator that adds
// up the time spent blocked in recv, and getrusage. run.py builds it, runs
// abnn2_server for the socket workload and prints the final result; this
// program prints one JSON object as the last line of its stdout.
//
//   e2ebench_harness <workload> --seed N --seconds S --trace 0|1
//       [--port P --model PATH]   (serve-b1)
//   e2ebench_harness save-model <path>
//   e2ebench_harness serve-warmup --seed N --port P --model <path>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/inference.h"
#include "core/nonlinear.h"
#include "core/protocol_seeds.h"
#include "core/triplet_gen.h"
#include "crypto/ro.h"
#include "gc/circuit.h"
#include "gc/garble.h"
#include "net/framed_channel.h"
#include "net/party_runner.h"
#include "net/socket_channel.h"
#include "nn/model.h"
#include "nn/model_io.h"
#include "obs/obs.h"
#include "offline/factory.h"
#include "ot/backend.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace abnn2;
using nn::MatU64;
using Clock = std::chrono::steady_clock;

// At l=32 the Fig-4 logits wrap; l=64 holds them (checked per batch below).
constexpr std::size_t kRingBits = 64;
constexpr std::size_t kFracBits = 12;
constexpr const char* kScheme = "s(2,2,2,2)";
constexpr std::size_t kPoolThreads = 2;
constexpr int kSetupReps = 5;
// The intended model is fixed; only the inputs come from --seed.
constexpr Block kModelSeed{0xF164, 0xAB22};
// Input index of warm-up batches, disjoint from the timed indices 0, 1, ...
constexpr u64 kWarmupIndex = u64{1} << 40;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return nearest_rank_percentile(v, q);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects it
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Everything one invocation reports; printed as one JSON line.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, u64> exact;  // counts that must repeat bit for bit
  std::map<std::string, std::string> context;
  std::vector<std::string> errors;   // failed checks; any entry => incorrect
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> extra;  // values run.py merges (serve-b1)

  void add(const std::string& name, double v, const char* unit) {
    metrics.push_back({name, {v, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void print() const {
    std::string o = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
      o += (i ? ", " : "") + json_str(errors[i]);
    o += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      o += (i ? ", " : "") + json_str(metrics[i].first) + ": {\"value\": " +
           json_num(metrics[i].second.first) +
           ", \"unit\": " + json_str(metrics[i].second.second) + "}";
    o += "}, \"exact\": {";
    bool first = true;
    for (const auto& [k, v] : exact) {
      o += (first ? "" : ", ") + json_str(k) + ": " + std::to_string(v);
      first = false;
    }
    o += "}, \"context\": {";
    first = true;
    for (const auto& [k, v] : context) {
      o += (first ? "" : ", ") + json_str(k) + ": " + json_str(v);
      first = false;
    }
    o += "}, \"extra\": {";
    first = true;
    for (const auto& [k, v] : extra) {
      o += (first ? "" : ", ") + json_str(k) + ": " + json_num(v);
      first = false;
    }
    o += "}}";
    std::printf("%s\n", o.c_str());
    std::fflush(stdout);
  }
};

// Forwards to a real channel and adds up the time blocked in recv. The
// party's busy time is the wall time of a call minus this wait.
class WaitChannel final : public Channel {
 public:
  explicit WaitChannel(Channel& inner) : inner_(inner) {}
  double wait_s() const { return wait_s_; }

 protected:
  void do_send(const void* data, std::size_t n) override {
    inner_.send(data, n);
  }
  void do_recv(void* data, std::size_t n) override {
    const auto t0 = Clock::now();
    inner_.recv(data, n);
    wait_s_ += since(t0);
  }

 private:
  Channel& inner_;
  double wait_s_ = 0;
};

// ---- the intended model --------------------------------------------------

struct Fig4 {
  std::shared_ptr<const nn::Model> model;
  std::array<u8, 32> digest{};
  std::vector<std::vector<i64>> weights;  // signed weight values per layer

  explicit Fig4(nn::Model m)
      : model(std::make_shared<const nn::Model>(std::move(m))),
        digest(nn::model_digest(*model)) {
    for (const auto& l : model->layers) {
      ABNN2_CHECK(!l.conv && !l.pool && l.bias.empty(),
                  "the integer reference covers plain FC layers only");
      std::vector<i64> w(l.codes.size());
      for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = l.scheme.interpret(l.codes.data()[i]);
      weights.push_back(std::move(w));
    }
  }
  const ss::Ring& ring() const { return model->ring; }
};

nn::Model build_fig4() {
  const ss::Ring ring(kRingBits);
  return nn::fig4_model(ring, nn::FragScheme::parse(kScheme), kModelSeed);
}

MatU64 inputs(const Fig4& f, u64 seed, u64 index, std::size_t batch) {
  return nn::synthetic_images(f.model->input_dim(), batch, kFracBits, f.ring(),
                              Block(seed, index));
}

// Evaluates the model over the integers (no reduction mod 2^l) and compares
// it with the ring reference. False when a layer output leaves the signed
// l-bit range (the ring would have wrapped) or the logits differ.
bool matches_integer_model(const Fig4& f, const MatU64& x, const MatU64& ref) {
  const auto& ring = f.ring();
  const std::size_t b = x.cols();
  const __int128 lim = static_cast<__int128>(1) << (ring.bits() - 1);
  std::vector<__int128> act(x.data().size());
  for (std::size_t i = 0; i < act.size(); ++i)
    act[i] = ring.to_signed(x.data()[i]);
  const auto& layers = f.model->layers;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const std::size_t rows = layers[li].codes.rows();
    const std::size_t cols = layers[li].codes.cols();
    std::vector<__int128> y(rows * b, 0);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        const i64 w = f.weights[li][r * cols + c];
        if (w == 0) continue;
        for (std::size_t k = 0; k < b; ++k) y[r * b + k] += w * act[c * b + k];
      }
    for (auto& v : y) {
      if (v >= lim || v < -lim) return false;
      if (li + 1 < layers.size() && v < 0) v = 0;
    }
    act = std::move(y);
  }
  for (std::size_t i = 0; i < act.size(); ++i)
    if (act[i] != ring.to_signed(ref.data()[i])) return false;
  return true;
}

// Secure logits against nn::infer_plain, and infer_plain against the
// integer evaluation, so a reference that shares a wrap cannot pass.
bool prediction_ok(const Fig4& f, const MatU64& x, const MatU64& secure) {
  const MatU64 ref = nn::infer_plain(*f.model, x);
  return secure == ref && matches_integer_model(f, x, ref);
}

core::InferenceConfig default_config(const Fig4& f) {
  // Shipped defaults: IKNP/KK13, default RO, optimized ReLU, auto batch mode.
  // The pool size is pinned process-wide in main(), so threads stays 0.
  return core::InferenceConfig(f.ring());
}

void add_context(Report& rep, u64 seed) {
  const core::InferenceConfig cfg(ss::Ring{kRingBits});
  rep.context["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  rep.context["dispatch"] = simd::dispatch_summary();
  rep.context["compiler"] = __VERSION__;
  rep.context["build_type"] = E2EBENCH_BUILD_TYPE;
  rep.context["pool_threads"] = std::to_string(runtime::num_threads());
  rep.context["ot_backend"] = ot::to_string(cfg.ot_backend);
  rep.context["ro_mode"] =
      ro_mode() == RoMode::kSha256 ? "sha256" : "fixed-key-aes";
  rep.context["seed"] = std::to_string(seed);
}

// ---- in-process workloads (both parties over MemChannel) -----------------

struct Sample {
  u64 index = 0;
  bool traced = false;
  double latency_ms = 0, offline_ms = 0, online_ms = 0, client_wait_ms = 0;
  u64 bytes = 0, rounds = 0;  // both parties' bytes sent; max endpoint rounds
  MatU64 logits;
};

// One batch, closed loop: the client clock runs from run_offline until the
// logits return. With `traced`, both channels are wrapped in WaitChannel.
Sample run_batch(core::InferenceServer& srv, core::InferenceClient& cli,
                 const MatU64& x, bool traced) {
  Sample s;
  s.traced = traced;
  auto res = run_two_parties(
      [&](Channel& ch) {
        std::optional<WaitChannel> w;
        Channel& c = traced ? static_cast<Channel&>(w.emplace(ch)) : ch;
        srv.run_offline(c);
        srv.run_online(c);
        return 0;
      },
      [&](Channel& ch) {
        std::optional<WaitChannel> w;
        Channel& c = traced ? static_cast<Channel&>(w.emplace(ch)) : ch;
        const auto t0 = Clock::now();
        cli.run_offline(c, x.cols());
        const auto t1 = Clock::now();
        MatU64 y = cli.run_online(c, x);
        s.offline_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        s.online_ms = since(t1) * 1e3;
        s.latency_ms = since(t0) * 1e3;
        if (w) s.client_wait_ms = w->wait_s() * 1e3;
        return y;
      });
  s.logits = std::move(res.party1);
  s.bytes = res.stats0.bytes_sent + res.stats1.bytes_sent;
  s.rounds = std::max(res.stats0.rounds, res.stats1.rounds);
  return s;
}

// Per-party cost of one replayed layer call.
struct Cost {
  double wall_s[2] = {0, 0}, wait_s[2] = {0, 0};
  u64 bytes = 0, rounds = 0;
  double busy_ms(int p) const { return (wall_s[p] - wait_s[p]) * 1e3; }
  double wait_ms(int p) const { return wait_s[p] * 1e3; }
};

// Runs server `fs` and client `fc` over a fresh MemChannel pair, each
// behind a WaitChannel.
template <class FS, class FC>
Cost replay_pair(FS&& fs, FC&& fc) {
  Cost c;
  const auto timed = [&c](int p, auto& f) {
    return [&c, p, &f](Channel& ch) {
      WaitChannel w(ch);
      const auto t0 = Clock::now();
      f(static_cast<Channel&>(w));
      c.wall_s[p] = since(t0);
      c.wait_s[p] = w.wait_s();
      return 0;
    };
  };
  const auto res = run_two_parties(timed(0, fs), timed(1, fc));
  c.bytes = res.stats0.bytes_sent + res.stats1.bytes_sent;
  c.rounds = std::max(res.stats0.rounds, res.stats1.rounds);
  return c;
}

void add_cost(Report& rep, const std::string& layer, const Cost& c) {
  rep.add(layer + ".busy_ms.server", c.busy_ms(0), "ms");
  rep.add(layer + ".busy_ms.client", c.busy_ms(1), "ms");
  rep.add(layer + ".wait_ms.server", c.wait_ms(0), "ms");
  rep.add(layer + ".wait_ms.client", c.wait_ms(1), "ms");
  rep.add(layer + ".mb", static_cast<double>(c.bytes) / 1e6, "MB");
  rep.add(layer + ".rounds", static_cast<double>(c.rounds), "count");
}

// Installs an in-memory collector for the program's spans and counters.
class Tracing {
 public:
  explicit Tracing(obs::Collector& c) { obs::set_collector(&c); }
  ~Tracing() { obs::set_collector(nullptr); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

u64 counter(obs::Collector& col, const std::string& name) {
  const auto cs = col.counters();
  const auto it = cs.find(name);
  return it == cs.end() ? 0 : it->second;
}

// Protocol bytes outside the layer replays, read from the program's own
// spans (client endpoint, which sees both directions) of one session.
struct SessionBytes {
  u64 handshake = 0, arch = 0, io = 0;  // io = input share + logit reveal
};

SessionBytes span_bytes(const obs::Collector& col) {
  SessionBytes b;
  for (const auto& s : col.spans()) {
    if (s.party != 1 || !s.has_traffic) continue;
    const u64 n = s.traffic.total_bytes();
    if (s.name == "handshake") b.handshake += n;
    if (s.name == "model-arch") b.arch += n;
    if (s.name == "send-input" || s.name == "reveal") b.io += n;
  }
  return b;
}

// Loopback FramedChannel-over-SocketChannel throughput for a transfer of
// `bytes` in 64 KiB messages, answered by an 8-byte ack.
double framed_mb_s(u64 bytes) {
  SocketListener listener(0);
  const u16 port = listener.port();
  std::vector<u8> buf(64 * 1024, 0x5A);
  double seconds = 0;
  std::thread peer([&] {
    auto sock = listener.accept();
    FramedChannel ch(*sock);
    std::vector<u8> in(buf.size());
    for (u64 left = bytes; left > 0;) {
      const std::size_t n = std::min<u64>(left, in.size());
      ch.recv(in.data(), n);
      left -= n;
    }
    ch.send_u64(bytes);
  });
  {
    auto sock = SocketChannel::connect("127.0.0.1", port);
    FramedChannel ch(*sock);
    const auto t0 = Clock::now();
    for (u64 left = bytes; left > 0;) {
      const std::size_t n = std::min<u64>(left, buf.size());
      ch.send(buf.data(), n);
      left -= n;
    }
    ch.recv_u64();
    seconds = since(t0);
  }
  peer.join();
  return static_cast<double>(bytes) / 1e6 / seconds;
}

// ns per AND gate to garble and to evaluate `n` instances of `c`, with the
// decoded outputs checked against the cleartext circuit.
std::pair<double, double> garble_eval_ns(const gc::Circuit& c, std::size_t n,
                                         Prg& prg, Report& rep) {
  const auto t0 = Clock::now();
  gc::Garbler g(c, n, /*tweak_base=*/0, prg);
  const double garble_s = since(t0);
  std::vector<u8> gb(n * c.in_g.size()), eb(n * c.in_e.size());
  for (auto& v : gb) v = prg.next_bit();
  for (auto& v : eb) v = prg.next_bit();
  std::vector<Block> gl(gb.size()), el(eb.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < c.in_g.size(); ++i)
      gl[k * c.in_g.size() + i] =
          g.encode(g.g_input_label0(k, i), gb[k * c.in_g.size() + i]);
    for (std::size_t i = 0; i < c.in_e.size(); ++i)
      el[k * c.in_e.size() + i] =
          g.encode(g.e_input_label0(k, i), eb[k * c.in_e.size() + i]);
  }
  const auto t1 = Clock::now();
  const auto out = gc::Evaluator::eval(c, g.batch(), 0, gl, el);
  const double eval_s = since(t1);
  bool ok = out.size() == n * c.out.size();
  for (std::size_t k = 0; ok && k < n; ++k) {
    const std::vector<bool> gk(gb.begin() + k * c.in_g.size(),
                               gb.begin() + (k + 1) * c.in_g.size());
    const std::vector<bool> ek(eb.begin() + k * c.in_e.size(),
                               eb.begin() + (k + 1) * c.in_e.size());
    const auto want = gc::eval_plain(c, gk, ek);
    for (std::size_t o = 0; o < want.size(); ++o)
      ok = ok && (out[k * c.out.size() + o] != 0) == want[o];
  }
  rep.check(ok, "garbled ReLU circuit output differs from cleartext");
  const double ands = static_cast<double>(n * c.and_count());
  return {garble_s * 1e9 / ands, eval_s * 1e9 / ands};
}

enum class Kind { kCold, kServe };

// The traced replay: each layer through its public entry point at the
// workload's shapes, on batch 0's inputs. Adds the per-layer metrics and
// checks that the layers' bytes add up to the timed batch's comm bytes.
void replay_layers(const Fig4& f, Kind kind, std::size_t batch,
                   const MatU64& x0, u64 timed_bytes, Report& rep) {
  const auto& ring = f.ring();
  const auto& layers = f.model->layers;
  const core::InferenceConfig cfg = default_config(f);
  obs::Collector col;
  const Tracing tracing(col);
  Prg prg_s(Block(0x5E, 1)), prg_c(Block(0xC1, 2));

  // Plaintext activations: act[i] is layer i's input, pre[i] its output.
  std::vector<MatU64> act{x0}, pre;
  for (const auto& l : layers) {
    pre.push_back(nn::matmul_codes(ring, l.codes, l.scheme, act.back()));
    MatU64 a = pre.back();
    nn::relu_inplace(ring, a);
    act.push_back(std::move(a));
  }

  // OT backends' setup(): the triplet 1-of-N pair and the GC 1-of-2 pair.
  auto kk_r = ot::make_not_receiver(cfg.ot_backend, core::kKk13TripletTag);
  auto kk_s = ot::make_not_sender(cfg.ot_backend, core::kKk13TripletTag);
  auto gc_r = ot::make_ot_receiver(cfg.ot_backend, core::kReluGcTag);
  auto gc_s = ot::make_ot_sender(cfg.ot_backend, core::kReluGcTag);
  const Cost kk_setup = replay_pair([&](Channel& ch) { kk_r->setup(ch, prg_s); },
                                    [&](Channel& ch) { kk_s->setup(ch, prg_c); });
  const Cost gc_setup = replay_pair([&](Channel& ch) { gc_r->setup(ch, prg_s); },
                                    [&](Channel& ch) { gc_s->setup(ch, prg_c); });
  const u64 base_bytes = kk_setup.bytes + gc_setup.bytes;
  rep.add("ot.base.setup_ms",
          (std::max(kk_setup.wall_s[0], kk_setup.wall_s[1]) +
           std::max(gc_setup.wall_s[0], gc_setup.wall_s[1])) * 1e3,
          "ms");
  rep.add("ot.base.mb", static_cast<double>(base_bytes) / 1e6, "MB");

  // Triplet generation per layer, with a fresh R.
  core::TripletConfig tcfg(ring);
  tcfg.mode = cfg.batch_mode;
  tcfg.chunk_instances = cfg.chunk_instances;
  u64 triplet_bytes = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& l = layers[li];
    const MatU64 r = nn::random_mat(l.codes.cols(), batch, ring.bits(), prg_c);
    const u64 ots_before = counter(col, "kk13.extend.instances");
    MatU64 u, v;
    const Cost c = replay_pair(
        [&](Channel& ch) {
          u = core::triplet_gen_server(ch, *kk_r, l.codes, l.scheme, batch,
                                       tcfg);
        },
        [&](Channel& ch) {
          v = core::triplet_gen_client(ch, *kk_s, r, l.scheme, l.codes.rows(),
                                       tcfg, prg_c);
        });
    const MatU64 wr = nn::matmul_codes(ring, l.codes, l.scheme, r);
    bool ok = u.data().size() == wr.data().size() && v.data().size() == u.data().size();
    for (std::size_t i = 0; ok && i < wr.data().size(); ++i)
      ok = ring.add(u.data()[i], v.data()[i]) == wr.data()[i];
    rep.check(ok, "triplet replay: U + V != W*R at layer " + std::to_string(li));
    const std::string name = "core.triplet.l" + std::to_string(li);
    add_cost(rep, name, c);
    // Both endpoints of the replay count every extended instance.
    const u64 ots = (counter(col, "kk13.extend.instances") - ots_before) / 2;
    rep.add(name + ".ot_instances", static_cast<double>(ots), "count");
    rep.exact[name + ".ot_instances"] = ots;
    triplet_bytes += c.bytes;
  }

  // ReLU per hidden layer on shares of the true pre-activations. A 1-neuron
  // call first sets up the GC OT, which ot.base already accounts for.
  core::ReluServer relu_s(ring, cfg.relu, cfg.ot_backend);
  core::ReluClient relu_c(ring, cfg.relu, cfg.ot_backend);
  {
    const std::vector<u64> one{0};
    replay_pair([&](Channel& ch) { relu_s.run(ch, one, prg_s); },
                [&](Channel& ch) { relu_c.run(ch, one, one, prg_c); });
  }
  const gc::Circuit sign = core::sign_circuit(ring.bits());
  const gc::Circuit reshare = core::reshare_circuit(ring.bits());
  u64 relu_bytes = 0;
  std::size_t positives0 = 0;
  for (std::size_t li = 0; li + 1 < layers.size(); ++li) {
    const auto& y = pre[li].data();
    std::vector<u64> y0(y.size()), y1(y.size()), z1(y.size()), z0;
    std::size_t positives = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      y1[i] = ring.random(prg_c);
      y0[i] = ring.sub(y[i], y1[i]);
      z1[i] = ring.random(prg_c);
      positives += !ring.msb(y[i]);
    }
    const u64 ands_before = counter(col, "gc.and_gates");
    const Cost c = replay_pair([&](Channel& ch) { z0 = relu_s.run(ch, y0, prg_s); },
                               [&](Channel& ch) { relu_c.run(ch, y1, z1, prg_c); });
    const u64 ands = counter(col, "gc.and_gates") - ands_before;
    bool ok = z0.size() == y.size();
    for (std::size_t i = 0; ok && i < y.size(); ++i)
      ok = ring.add(z0[i], z1[i]) == act[li + 1].data()[i];
    rep.check(ok, "ReLU replay: z0 + z1 != ReLU(y) at layer " + std::to_string(li));
    const u64 expect_ands =
        y.size() * sign.and_count() + positives * reshare.and_count();
    rep.check(ands == expect_ands,
              "ReLU replay: gc.and_gates counter " + std::to_string(ands) +
                  " != " + std::to_string(expect_ands) + " from the circuits");
    const std::string name = "core.relu.l" + std::to_string(li);
    add_cost(rep, name, c);
    rep.add(name + ".and_gates", static_cast<double>(ands), "count");
    rep.add(name + ".positive_share",
            static_cast<double>(positives) / static_cast<double>(y.size()),
            "share");
    rep.exact[name + ".and_gates"] = ands;
    relu_bytes += c.bytes;
    if (li == 0) positives0 = positives;
  }

  // Garbling and evaluation of the ReLU circuits at layer 0's counts.
  {
    Prg prg(Block(0x6C, 3));
    std::vector<double> g_ns, e_ns;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      const auto [gs, es] = garble_eval_ns(sign, pre[0].data().size(), prg, rep);
      const auto [gr, er] =
          garble_eval_ns(reshare, std::max<std::size_t>(positives0, 1), prg, rep);
      const double na = static_cast<double>(pre[0].data().size() * sign.and_count());
      const double nb = static_cast<double>(std::max<std::size_t>(positives0, 1) *
                                            reshare.and_count());
      g_ns.push_back((gs * na + gr * nb) / (na + nb));
      e_ns.push_back((es * na + er * nb) / (na + nb));
    }
    rep.add("gc.garble.ns_per_and", median(g_ns), "ns");
    rep.add("gc.eval.ns_per_and", median(e_ns), "ns");
  }

  // Linear layers: nn::matmul_codes at the workload's shapes.
  for (std::size_t li = 0; li < layers.size(); ++li) {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const MatU64 y = nn::matmul_codes(ring, layers[li].codes,
                                        layers[li].scheme, act[li]);
      ms.push_back(since(t0) * 1e3);
      rep.check(y == pre[li], "matmul_codes is not deterministic");
    }
    rep.add("core.linear.l" + std::to_string(li) + ".ms", median(ms), "ms");
  }

  // Offline factory: the second bundle of one dealer (base OT amortized).
  {
    offline::MaterialFactory factory;
    factory.register_model(f.model, f.digest);
    const offline::MaterialKey key{f.digest, ring.bits(), batch,
                                   static_cast<u64>(cfg.ot_backend)};
    factory.generate_now(key);
    col.clear();
    const auto t0 = Clock::now();
    const auto bundle = factory.generate_now(key);
    const double ms = since(t0) * 1e3;
    u64 bytes = 0;
    for (const auto& s : col.spans())
      if (s.name == "triplet-gen/server" && s.has_traffic)
        bytes += s.traffic.total_bytes();
    rep.check(bundle.server && bundle.client, "factory bundle lacks a half");
    rep.check(bytes == triplet_bytes,
              "factory bundle bytes " + std::to_string(bytes) +
                  " != triplet replay bytes " + std::to_string(triplet_bytes));
    rep.add("offline.factory.bundle_ms", ms, "ms");
    rep.add("offline.factory.bundle_mb", static_cast<double>(bytes) / 1e6, "MB");
  }

  // One fresh reference session on batch 0's inputs, for the bytes that lie
  // outside the layers (hello, model architecture, input share, reveal).
  col.clear();
  {
    core::InferenceServer srv(f.model, cfg, &f.digest);
    core::InferenceClient cli(cfg);
    const Sample s = run_batch(srv, cli, x0, false);
    rep.check(prediction_ok(f, x0, s.logits), "reference session logits wrong");
  }
  const SessionBytes sb = span_bytes(col);

  // Exact-count cross-check against the timed run's batch 0.
  u64 expect = triplet_bytes + relu_bytes + sb.handshake + sb.arch + sb.io;
  if (kind == Kind::kServe) expect += base_bytes;
  rep.check(expect == timed_bytes,
            "exact-count cross-check: layers + handshake + architecture = " +
                std::to_string(expect) + " bytes, timed batch 0 sent " +
                std::to_string(timed_bytes));
  rep.exact["handshake_bytes"] = sb.handshake;
  rep.exact["model_arch_bytes"] = sb.arch;
}

// Fills the end-to-end metrics shared by every workload.
void add_end_to_end(Report& rep, double setup_s, const std::vector<Sample>& all,
                    double window_s, std::size_t batch, double cpu_s,
                    double rss_mb) {
  std::vector<double> lat, off, on;
  for (const auto& s : all)
    if (!s.traced) {
      lat.push_back(s.latency_ms);
      off.push_back(s.offline_ms);
      on.push_back(s.online_ms);
    }
  const Sample& first = all.front();
  const double images = static_cast<double>(all.size() * batch);
  ChannelStats a, b;  // the WAN model splits bytes/rounds over two endpoints
  a.bytes_sent = first.bytes;
  a.rounds = first.rounds;
  rep.add("setup_s", setup_s, "s");
  rep.add("latency_ms.p50", percentile(lat, 0.5), "ms");
  rep.add("latency_ms.p90", percentile(lat, 0.9), "ms");
  rep.add("offline_ms.p50", percentile(off, 0.5), "ms");
  rep.add("online_ms.p50", percentile(on, 0.5), "ms");
  rep.add("throughput_img_s", images / window_s, "img/s");
  rep.add("comm_mb", static_cast<double>(first.bytes) / 1e6, "MB");
  rep.add("rounds", static_cast<double>(first.rounds), "count");
  rep.add("wan_s", kWanQuotient.simulate(percentile(lat, 0.5) / 1e3, a, b), "s");
  rep.add("cpu_s_per_img", cpu_s / images, "s");
  rep.add("peak_rss_mb", rss_mb, "MB");
  rep.extra["samples"] = static_cast<double>(lat.size());
}

// Per-layer metrics every traced run reports: the layer replay on batch 0's
// inputs, the client's recv wait, framing throughput and the tracing cost.
void add_traced(Report& rep, const Fig4& f, Kind kind, u64 seed,
                std::size_t batch, const std::vector<Sample>& samples,
                double cpu_per_wall) {
  std::vector<double> plain, traced, wait;
  for (const auto& s : samples) {
    (s.traced ? traced : plain).push_back(s.latency_ms);
    if (s.traced) wait.push_back(s.client_wait_ms);
  }
  rep.check(!plain.empty() && !traced.empty(),
            "the traced run needs batches in both halves of its window");
  const u64 bytes = samples.front().bytes;
  replay_layers(f, kind, batch, inputs(f, seed, 0, batch), bytes, rep);
  rep.add("net.wait_ms.client", median(wait), "ms");
  std::vector<double> mb_s;
  for (int i = 0; i < 3; ++i) mb_s.push_back(framed_mb_s(bytes));
  rep.add("net.framed.mb_s", median(mb_s), "MB/s");
  rep.add("runtime.cpu_per_wall", cpu_per_wall, "cpu/wall");
  rep.add("trace_overhead", median(traced) / median(plain), "ratio");
}

// fig4-cold-b4: both parties in this process, one session.
int run_cold(u64 seed, double seconds, bool trace) {
  const std::size_t batch = 4;
  Report rep;
  add_context(rep, seed);

  // Set-up, repeated: build the model, create both parties and run one
  // warm-up batch, which pays base OT. The last repetition's objects are
  // timed.
  std::vector<double> setup;
  std::unique_ptr<Fig4> f;
  std::unique_ptr<core::InferenceServer> srv;
  std::unique_ptr<core::InferenceClient> cli;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    f = std::make_unique<Fig4>(build_fig4());
    const core::InferenceConfig cfg = default_config(*f);
    srv = std::make_unique<core::InferenceServer>(f->model, cfg, &f->digest);
    core::InferenceConfig ccfg = cfg;
    ccfg.expected_model_digest = f->digest;
    cli = std::make_unique<core::InferenceClient>(ccfg);
    const MatU64 x = inputs(*f, seed, kWarmupIndex, batch);
    const Sample s = run_batch(*srv, *cli, x, false);
    setup.push_back(since(t0));
    rep.check(prediction_ok(*f, x, s.logits), "warm-up batch logits wrong");
  }

  // Timed window, closed loop. A traced run times its second half with the
  // WaitChannel decorators and the program's spans on.
  obs::Collector col;
  std::vector<Sample> samples;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  while (since(start) < seconds) {
    const bool traced = trace && since(start) >= seconds / 2;
    const u64 index = samples.size();
    const MatU64 x = inputs(*f, seed, index, batch);
    try {
      std::optional<Tracing> tracing;
      if (traced) tracing.emplace(col);
      samples.push_back(run_batch(*srv, *cli, x, traced));
      samples.back().index = index;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch %llu failed: %s\n",
                   static_cast<unsigned long long>(index), e.what());
      ++rep.failed;
      break;  // the session state is gone; stop the loop
    }
    col.clear();
  }
  const double window_s = since(start);
  const double cpu_s = cpu_seconds() - cpu0;

  rep.attempted = samples.size() + rep.failed;
  for (const auto& s : samples)
    if (!prediction_ok(*f, inputs(*f, seed, s.index, batch), s.logits)) {
      ++rep.failed;
      rep.errors.push_back("wrong logits in batch " + std::to_string(s.index));
    }
  if (samples.empty()) {
    rep.errors.push_back("no batch completed");
    rep.print();
    return 0;
  }
  rep.exact["comm_bytes"] = samples.front().bytes;
  rep.exact["rounds"] = samples.front().rounds;

  if (!trace) {
    add_end_to_end(rep, median(setup), samples, window_s, batch, cpu_s,
                   peak_rss_mb());
  } else {
    add_traced(rep, *f, Kind::kCold, seed, batch, samples, cpu_s / window_s);
    // No server process in this workload.
    rep.add("serve.probe_ms.p50", 0, "ms");
    rep.add("serve.busy_share", 0, "share");
    rep.add("serve.reaped", 0, "count");
  }
  rep.print();
  return 0;
}

// ---- serve-b1: fresh connection, fresh client, one batch-1 prediction ----

// Sample bytes are the framed payload in both directions; rounds are the
// client endpoint's (the server's count is not visible from here).
struct Request {
  Sample s;
  bool ok = false;
  int busy = 0;  // BUSY replies before the attempt that got served
  std::string error;
};

Request serve_request(u16 port, const Fig4& f, const MatU64& x, bool traced) {
  Request r;
  r.s.traced = traced;
  RetryState retry{RetryPolicy{}};
  SocketOptions opts;
  opts.recv_timeout_ms = 60'000;
  const auto t0 = Clock::now();
  for (;;) {
    try {
      auto sock = SocketChannel::connect("127.0.0.1", port, opts);
      FramedChannel framed(*sock);
      std::optional<WaitChannel> w;
      Channel& ch = traced ? static_cast<Channel&>(w.emplace(framed)) : framed;
      // A fresh client per connection: the server resets a session when the
      // connection ends, so a client that kept its OT session would hang.
      core::InferenceConfig cfg = default_config(f);
      cfg.expected_model_digest = f.digest;
      core::InferenceClient client(cfg);
      const auto t1 = Clock::now();
      client.run_offline(ch, x.cols());
      const auto t2 = Clock::now();
      r.s.logits = client.run_online(ch, x);
      r.s.offline_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
      r.s.online_ms = since(t2) * 1e3;
      r.s.latency_ms = since(t0) * 1e3;
      r.s.bytes = framed.stats().total_bytes();
      r.s.rounds = framed.stats().rounds;
      if (w) r.s.client_wait_ms = w->wait_s() * 1e3;
      r.ok = true;
      return r;
    } catch (const core::ServerBusy& e) {
      ++r.busy;
      const auto backoff = retry.next_backoff(classify(e), e.retry_after_ms());
      if (!backoff) {
        r.error = "BUSY retries exhausted";
        return r;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(*backoff));
    } catch (const std::exception& e) {
      r.error = e.what();
      return r;
    }
  }
}

int run_serve(u64 seed, double seconds, bool trace, u16 port,
              const std::string& model_path, bool warmup_only) {
  Report rep;
  add_context(rep, seed);
  const Fig4 f(nn::load_model(model_path));

  const auto tw = Clock::now();
  const MatU64 xw = inputs(f, seed, kWarmupIndex, 1);
  const Request warm = serve_request(port, f, xw, false);
  rep.extra["warmup_s"] = since(tw);
  rep.check(warm.ok && prediction_ok(f, xw, warm.s.logits),
            "warm-up request failed: " + warm.error);
  if (warmup_only) {
    rep.print();
    return 0;
  }

  // Timed window: 2 client threads, closed loop. A traced run times its
  // second half with WaitChannel, the program's spans and a health prober.
  constexpr int kClients = 2;
  obs::Collector col;
  std::mutex mu;
  std::vector<Request> done;
  std::atomic<u64> next{0};
  std::atomic<bool> traced_half{false};
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      while (since(start) < seconds) {
        const u64 index = next.fetch_add(1);
        const MatU64 x = inputs(f, seed, index, 1);
        Request r = serve_request(port, f, x, traced_half.load());
        r.s.index = index;
        std::lock_guard lk(mu);
        done.push_back(std::move(r));
      }
    });
  std::vector<double> probe_ms;
  std::optional<Tracing> tracing;
  if (trace) {
    while (since(start) < seconds / 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tracing.emplace(col);
    traced_half = true;
    while (since(start) < seconds) {
      try {
        const auto t0 = Clock::now();
        auto sock = SocketChannel::connect("127.0.0.1", port);
        FramedChannel ch(*sock);
        core::probe_health(ch);
        probe_ms.push_back(since(t0) * 1e3);
      } catch (const std::exception& e) {
        rep.errors.push_back(std::string("health probe failed: ") + e.what());
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }
  for (auto& t : clients) t.join();
  tracing.reset();
  const double window_s = since(start);
  const double cpu_s = cpu_seconds() - cpu0;

  std::sort(done.begin(), done.end(), [](const Request& a, const Request& b) {
    return a.s.index < b.s.index;
  });
  std::vector<Sample> samples;
  u64 busy = 0;
  for (auto& r : done) {
    busy += r.busy;
    if (!r.ok) {
      ++rep.failed;
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(r.s.index), r.error.c_str());
    } else if (!prediction_ok(f, inputs(f, seed, r.s.index, 1), r.s.logits)) {
      ++rep.failed;
      rep.errors.push_back("wrong logits in request " +
                           std::to_string(r.s.index));
    } else {
      samples.push_back(std::move(r.s));
    }
  }
  rep.attempted = done.size();
  if (samples.empty() || samples.front().index != 0) {
    rep.errors.push_back("request 0 did not complete");
    rep.print();
    return 0;
  }
  rep.exact["comm_bytes"] = samples.front().bytes;
  rep.exact["rounds"] = samples.front().rounds;
  rep.extra["client_cpu_s"] = cpu_s;
  rep.extra["window_s"] = window_s;
  rep.extra["images"] = static_cast<double>(samples.size());
  rep.extra["busy_replies"] = static_cast<double>(busy);
  rep.extra["connects"] = static_cast<double>(busy + done.size());

  if (!trace) {
    // run.py adds the server's CPU and memory and the set-up time.
    add_end_to_end(rep, 0, samples, window_s, 1, cpu_s, peak_rss_mb());
  } else {
    add_traced(rep, f, Kind::kServe, seed, 1, samples, cpu_s / window_s);
    rep.add("serve.probe_ms.p50", median(probe_ms), "ms");
    rep.add("serve.busy_share",
            static_cast<double>(busy) / static_cast<double>(busy + done.size()),
            "share");
    rep.add("serve.reaped", 0, "count");  // run.py reads the drain summary
    rep.check(!probe_ms.empty(), "no health probe ran");
  }
  rep.print();
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench_harness <fig4-cold-b4|serve-b1> "
               "--seed N --seconds S --trace 0|1 [--port P --model PATH]\n"
               "       e2ebench_harness serve-warmup --seed N --port P --model PATH\n"
               "       e2ebench_harness save-model PATH\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  if (mode == "save-model") {
    if (argc != 3) usage();
    const auto t0 = Clock::now();
    nn::save_model(build_fig4(), argv[2]);
    std::printf("{\"save_s\": %s}\n", json_num(since(t0)).c_str());
    return 0;
  }
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const auto get = [&](const char* k) -> const std::string& {
    const auto it = opt.find(k);
    if (it == opt.end()) usage();
    return it->second;
  };
  try {
    runtime::set_threads(kPoolThreads);
    const u64 seed = std::stoull(get("--seed"));
    if (mode == "serve-warmup")
      return run_serve(seed, 0, false, static_cast<u16>(std::stoul(get("--port"))),
                       get("--model"), true);
    const double seconds = std::stod(get("--seconds"));
    const bool trace = get("--trace") == "1";
    if (mode == "fig4-cold-b4") return run_cold(seed, seconds, trace);
    if (mode == "serve-b1")
      return run_serve(seed, seconds, trace,
                       static_cast<u16>(std::stoul(get("--port"))), get("--model"),
                       false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench_harness: %s\n", e.what());
    return 1;
  }
  usage();
}
