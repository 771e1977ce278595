// fzd — the FZ compression daemon (docs/SERVICE.md).
//
//   fzd serve    --socket PATH [--workers N] [--queue N] [--batch N]
//   fzd stats    --socket PATH
//   fzd selftest [--socket PATH]
//   fzd soak     [--requests N] [--clients N] [--workers N] [--queue N]
//                [--socket PATH]
//
// `serve` runs until SIGINT/SIGTERM.  `selftest` starts a private server,
// runs one client through every job kind and failure mode, and exits 0 on
// success.  `soak` hammers one fz::Service from many client threads with
// mixed-size requests and verifies every response byte-identical against a
// direct Codec; with --socket the same traffic crosses the wire protocol.
// Both are wired into scripts/check.sh.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "datasets/generators.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Args {
  std::string command;
  std::string socket_path;
  size_t workers = 0;
  size_t queue_depth = 64;
  size_t batch_max = 8;
  size_t requests = 5000;
  size_t clients = 8;
};

int usage() {
  std::cerr << "usage: fzd serve --socket PATH [--workers N] [--queue N] "
               "[--batch N]\n"
               "       fzd stats --socket PATH\n"
               "       fzd selftest [--socket PATH]\n"
               "       fzd soak [--requests N] [--clients N] [--workers N] "
               "[--queue N] [--socket PATH]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--socket")
      args.socket_path = value;
    else if (flag == "--workers")
      args.workers = std::stoul(value);
    else if (flag == "--queue")
      args.queue_depth = std::stoul(value);
    else if (flag == "--batch")
      args.batch_max = std::stoul(value);
    else if (flag == "--requests")
      args.requests = std::stoul(value);
    else if (flag == "--clients")
      args.clients = std::stoul(value);
    else
      return false;
  }
  return true;
}

std::string private_socket_path(const char* tag) {
  return "/tmp/fzd-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

fz::Service::Options service_options(const Args& args) {
  fz::Service::Options opt;
  opt.workers = args.workers;
  opt.queue_depth = args.queue_depth;
  opt.batch_max = args.batch_max;
  return opt;
}

int cmd_serve(const Args& args) {
  if (args.socket_path.empty()) return usage();
  fz::Server::Options opt;
  opt.socket_path = args.socket_path;
  opt.service = service_options(args);
  fz::Server server(opt);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::cout << "fzd: serving on " << server.socket_path() << " ("
            << server.service().worker_count() << " workers, queue "
            << server.service().queue_capacity() << ")" << std::endl;
  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  std::cout << "fzd: stopped" << std::endl;
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.socket_path.empty()) return usage();
  fz::Client client(args.socket_path);
  std::string text;
  const fz::Status s = client.stats_text(text);
  if (!s.ok()) {
    std::cerr << "fzd stats: " << s.to_string() << "\n";
    return 1;
  }
  std::cout << text;
  return 0;
}

#define CHECK(cond, what)                                       \
  do {                                                          \
    if (!(cond)) {                                              \
      std::cerr << "fzd selftest FAILED: " << (what) << "\n";   \
      return 1;                                                 \
    }                                                           \
  } while (0)

int cmd_selftest(const Args& args) {
  const std::string path = args.socket_path.empty()
                               ? private_socket_path("selftest")
                               : args.socket_path;
  fz::Server::Options opt;
  opt.socket_path = path;
  opt.service.workers = 2;
  fz::Server server(opt);
  fz::Client client(path);
  fz::Response resp;

  CHECK(client.ping().ok(), "ping");

  // f32 roundtrip, byte-identical to a direct Codec.
  const fz::Field field =
      fz::generate_field(fz::Dataset::CESM, fz::Dims{64, 32, 8});
  const fz::ErrorBound eb = fz::ErrorBound::relative(1e-3);
  fz::FzParams params;
  params.eb = eb;
  params.fused_workers = 1;
  const fz::FzCompressed direct =
      fz::fz_compress(field.values(), field.dims, params);
  CHECK(client.compress(field.values(), field.dims, eb, resp).ok(),
        "compress status");
  CHECK(resp.payload == direct.bytes, "compressed bytes match direct Codec");
  CHECK(resp.stats.compressed_bytes == direct.stats.compressed_bytes,
        "stats travel on the wire");
  const std::vector<fz::u8> stream = resp.payload;

  CHECK(client.decompress(stream, resp).ok(), "decompress status");
  const fz::FzDecompressed restored = fz::fz_decompress(stream);
  CHECK(resp.dims.count() == restored.data.size() &&
            resp.payload.size() == restored.data.size() * sizeof(fz::f32) &&
            std::memcmp(resp.payload.data(), restored.data.data(),
                        resp.payload.size()) == 0,
        "decompressed samples match direct Codec");

  CHECK(client.inspect(stream, resp).ok(), "inspect status");
  CHECK(resp.info.count == field.dims.count(), "inspect count");
  CHECK(resp.info.stream_bytes == stream.size(), "inspect stream_bytes");

  // Failure taxonomy across the wire.
  std::vector<fz::u8> garbage(64, 0xAB);
  fz::Status s = client.decompress(garbage, resp);
  CHECK(s.code() == fz::StatusCode::InvalidStream, "garbage -> invalid-stream");
  {
    fz::Request req;
    req.kind = fz::JobKind::Compress;
    req.dims = fz::Dims{0, 0, 0};
    s = client.call(req, resp);
    CHECK(s.code() == fz::StatusCode::InvalidParams,
          "zero dims -> invalid-params");
  }
  {
    fz::TenantPolicy policy;
    policy.max_payload_bytes = 16;
    server.service().set_policy(7, policy);
    fz::Request req;
    req.kind = fz::JobKind::Compress;
    req.tenant = 7;
    req.dims = fz::Dims{64, 32, 8};
    req.eb = eb;
    const fz::u8* bytes =
        reinterpret_cast<const fz::u8*>(field.data.data());
    req.payload.assign(bytes, bytes + field.data.size() * sizeof(fz::f32));
    s = client.call(req, resp);
    CHECK(s.code() == fz::StatusCode::PolicyDenied,
          "oversize payload -> policy-denied");
  }

  std::string stats;
  CHECK(client.stats_text(stats).ok(), "stats status");
  CHECK(stats.find("fz_service_up 1") != std::string::npos, "stats body");
  CHECK(stats.find("fz_service_worker_dropped_exceptions 0") !=
            std::string::npos,
        "no worker exceptions");

  server.stop();
  std::cout << "fzd selftest: ok" << std::endl;
  return 0;
}

/// One client thread's deterministic request mix (no rand(): index math
/// only, so every run and every transport exercises the same sequence).
struct SoakPlan {
  std::vector<fz::Field> fields;
  std::vector<std::vector<fz::u8>> expected;  ///< direct-Codec streams
  fz::ErrorBound eb = fz::ErrorBound::relative(1e-3);
};

int cmd_soak(const Args& args) {
  SoakPlan plan;
  // Mixed sizes: small fields exercise the batching path
  // (payload <= small_job_bytes), the large one the singleton path.
  plan.fields.push_back(
      fz::generate_field(fz::Dataset::CESM, fz::Dims{32, 16, 4}));
  plan.fields.push_back(
      fz::generate_field(fz::Dataset::HACC, fz::Dims{512, 1, 1}));
  plan.fields.push_back(
      fz::generate_field(fz::Dataset::Nyx, fz::Dims{48, 24, 12}));
  plan.fields.push_back(
      fz::generate_field(fz::Dataset::CESM, fz::Dims{128, 64, 16}));
  fz::FzParams params;
  params.eb = plan.eb;
  params.fused_workers = 1;
  for (const fz::Field& f : plan.fields)
    plan.expected.push_back(
        fz::fz_compress(f.values(), f.dims, params).bytes);

  std::unique_ptr<fz::Service> direct;
  std::unique_ptr<fz::Server> server;
  const bool over_wire = !args.socket_path.empty();
  if (over_wire) {
    fz::Server::Options wopt;
    wopt.socket_path = args.socket_path;
    wopt.service = service_options(args);
    wopt.io_workers = args.clients;
    server = std::make_unique<fz::Server>(wopt);
  } else {
    direct = std::make_unique<fz::Service>(service_options(args));
  }
  fz::Service& service = over_wire ? server->service() : *direct;

  const size_t clients = std::max<size_t>(args.clients, 1);
  const size_t per_client = (args.requests + clients - 1) / clients;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> retries{0};
  std::atomic<size_t> completed{0};

  const auto client_loop = [&](size_t task) {
    std::unique_ptr<fz::Client> client;
    if (over_wire) client = std::make_unique<fz::Client>(args.socket_path);
    fz::Request req;
    fz::Response resp;
    req.kind = fz::JobKind::Compress;
    req.eb = plan.eb;
    for (size_t i = 0; i < per_client; ++i) {
      const size_t which = (task * 9973 + i * 31) % plan.fields.size();
      const fz::Field& f = plan.fields[which];
      req.dims = f.dims;
      const fz::u8* bytes = reinterpret_cast<const fz::u8*>(f.data.data());
      req.payload.assign(bytes, bytes + f.data.size() * sizeof(fz::f32));
      for (;;) {
        const fz::Status s = over_wire ? client->call(req, resp)
                                       : service.submit(req, resp);
        if (s.code() == fz::StatusCode::QueueFull) {
          // Backpressure is a retryable contract, not an error.
          retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          continue;
        }
        if (!s.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (resp.payload != plan.expected[which])
          mismatches.fetch_add(1, std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  };
  fz::ThreadPool crew(clients);
  for (size_t task = 0; task < clients; ++task)
    crew.submit([&, task](size_t) { client_loop(task); });
  crew.wait_idle();

  const fz::Service::Counters c = service.counters();
  std::cout << "fzd soak: " << completed.load() << " responses ("
            << clients << " clients, " << (over_wire ? "wire" : "in-process")
            << "), " << retries.load() << " queue-full retries, "
            << c.batches << " batched wakeups, peak queue "
            << c.peak_queue_depth << "\n";
  if (server) server->stop();
  const size_t dropped = c.dropped_exceptions + crew.dropped_exceptions();
  if (mismatches.load() != 0 || failures.load() != 0 || dropped != 0) {
    std::cerr << "fzd soak FAILED: " << mismatches.load() << " mismatches, "
              << failures.load() << " failures, " << dropped
              << " dropped exceptions\n";
    return 1;
  }
  std::cout << "fzd soak: ok (all responses byte-identical to direct Codec)"
            << std::endl;
  return 0;
}

#undef CHECK

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "selftest") return cmd_selftest(args);
    if (args.command == "soak") return cmd_soak(args);
  } catch (const std::exception& e) {
    std::cerr << "fzd: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
