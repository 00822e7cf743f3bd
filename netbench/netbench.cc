// Network-path benchmark for the GeoStreams DSMS.
//
// Drives an in-process DsmsServer + NetServer over loopback from one
// load-generator process: a ProducerClient per band for ingest (one
// producer thread interleaving both bands, as one downlink does) and
// GeoStreamsClient connections for subscribers. The generator runs
// only before timing starts; every delivered frame is checked against
// a reference computed by an in-process DsmsServer on the same events.
//
//   netbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--workers <n>]
//   netbench --selftest
//
// Each run has a closed phase (publish as fast as the protocol allows
// until every expected frame has arrived) and an open phase (scans on
// a fixed schedule, rows paced evenly across each scan period). The
// last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1 (a traced run with
// trace_sample_every=1 plus replays of each layer's public calls).
// README.md in this directory explains the workloads and metrics.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "geo/region.h"
#include "mqo/cascade_tree.h"
#include "mqo/shared_restriction.h"
#include "net/geostreams_client.h"
#include "net/net_server.h"
#include "net/producer_client.h"
#include "net/wire_protocol.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "raster/frame_assembler.h"
#include "raster/png_encoder.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "storage/journal.h"

namespace netbench {
namespace {

using namespace geostreams;
namespace fs = std::filesystem;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "netbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T ValueOrDie(Result<T> r, const std::string& what) {
  CheckOk(r.status(), what);
  return std::move(*r);
}

// ---------------------------------------------------------------------------
// Inputs

/// The E8 instrument: 2-band row-by-row GOES-like lat/lon scans,
/// 64K cells per band, scan-sector timestamps.
constexpr int64_t kCells = 64 << 10;
/// Distinct scan contents generated per run (scans 0..3 of the GOES
/// routine: full disk, CONUS, northern hemisphere, CONUS). Scan k of a
/// run carries the content of scan k % kContents re-stamped with frame
/// id k, so the reference is computed once per content, not per scan.
constexpr int kContents = 4;

struct Event {
  int band = 0;  // index into the producer connections / sources
  StreamEvent ev;
};

struct ScanEvents {
  std::vector<Event> events;
  int64_t points = 0;
};

/// Counts StreamGenerator calls made while a timed phase is open; the
/// run fails its gate when this is ever non-zero.
std::atomic<bool> g_timed_phase{false};
std::atomic<uint64_t> g_generator_calls_timed{0};

class RecordingSink : public EventSink {
 public:
  RecordingSink(int band, std::vector<Event>* out) : band_(band), out_(out) {}
  Status Consume(const StreamEvent& event) override {
    out_->push_back(Event{band_, event});
    return Status::OK();
  }

 private:
  int band_;
  std::vector<Event>* out_;
};

struct Inputs {
  std::vector<GeoStreamDescriptor> descs;  // per band (producer order)
  std::vector<ScanEvents> contents;        // kContents generated scans
  std::vector<ScanEvents> scans;           // run scans, frame id == index
};

ScanEvents Restamp(const ScanEvents& content, int64_t frame_id) {
  ScanEvents out;
  out.points = content.points;
  out.events.reserve(content.events.size());
  for (const Event& e : content.events) {
    Event copy{e.band, StreamEvent()};
    switch (e.ev.kind) {
      case EventKind::kFrameBegin:
      case EventKind::kFrameEnd: {
        FrameInfo info = e.ev.frame;
        info.frame_id = frame_id;
        copy.ev = e.ev.kind == EventKind::kFrameBegin
                      ? StreamEvent::FrameBegin(std::move(info))
                      : StreamEvent::FrameEnd(std::move(info));
        break;
      }
      case EventKind::kPointBatch: {
        auto batch = std::make_shared<PointBatch>(*e.ev.batch);
        batch->frame_id = frame_id;
        std::fill(batch->timestamps.begin(), batch->timestamps.end(), frame_id);
        copy.ev = StreamEvent::Batch(std::move(batch));
        break;
      }
      default:
        copy.ev = e.ev;
        break;
    }
    out.events.push_back(std::move(copy));
  }
  return out;
}

Inputs MakeInputs(uint64_t seed, int64_t num_scans) {
  if (g_timed_phase.load()) g_generator_calls_timed.fetch_add(1);
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = kCells;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "goes";
  config.seed = seed;
  StreamGenerator gen(config, ScanSchedule::GoesRoutine());
  CheckOk(gen.Init(), "generator init");
  Inputs in;
  for (size_t b = 0; b < config.bands.size(); ++b) {
    in.descs.push_back(ValueOrDie(gen.Descriptor(b), "descriptor"));
  }
  for (int c = 0; c < kContents; ++c) {
    ScanEvents scan;
    RecordingSink s0(0, &scan.events), s1(1, &scan.events);
    CheckOk(gen.GenerateScans(c, 1, {&s0, &s1}), "generate");
    for (const Event& e : scan.events) {
      if (e.ev.kind == EventKind::kPointBatch) {
        scan.points += static_cast<int64_t>(e.ev.batch->size());
      }
    }
    in.contents.push_back(std::move(scan));
  }
  in.scans.reserve(static_cast<size_t>(num_scans));
  for (int64_t k = 0; k < num_scans; ++k) {
    in.scans.push_back(Restamp(in.contents[static_cast<size_t>(k % kContents)], k));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Workloads

struct Box {
  double x0, y0, x1, y1;
};

std::string BoxText(const Box& b) {
  return StringPrintf("bbox(%.4f, %.4f, %.4f, %.4f)", b.x0, b.y0, b.x1, b.y1);
}

/// Box of side lengths in [lo, hi] degrees placed inside CONUS.
Box ConusBox(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> side(lo, hi);
  const double w = side(rng), h = side(rng);
  std::uniform_real_distribution<double> x(-125.0, -66.0 - w);
  std::uniform_real_distribution<double> y(24.0, 50.0 - h);
  const double x0 = x(rng), y0 = y(rng);
  return Box{x0, y0, x0 + w, y0 + h};
}

Box MercatorOf(const Box& b) {
  constexpr double kR = 6378137.0;
  constexpr double kDeg = 3.14159265358979323846 / 180.0;
  auto y = [&](double lat) { return kR * std::log(std::tan(M_PI / 4 + lat * kDeg / 2)); };
  return Box{kR * b.x0 * kDeg, y(b.y0), kR * b.x1 * kDeg, y(b.y1)};
}

struct QuerySpec {
  std::string text;
  int conn = 0;  // subscriber connection index
  /// Lat/lon regions the query restricts each band on (band index ->
  /// boxes), for the shared-restriction replay.
  std::vector<std::pair<int, Box>> band_regions;
  /// A raw-band `region(…)` query: its frames ship source cells, so
  /// their useful share is defined.
  bool raw = false;
};

struct Workload {
  std::string name;
  std::vector<QuerySpec> queries;
  int subscriber_conns = 1;
  bool encode_png = false;
  size_t workers = 0;
  bool durable = false;
  /// durable_history: the SINCE query (its reference is query index
  /// queries.size()) and the scans of history in the store at start.
  QuerySpec catchup;
  int64_t history_scans = 0;
  /// Fewest open-phase scans a run makes, whatever --seconds gives.
  int64_t min_open_scans = 0;
  /// Open-phase scan rate (scans/s), frozen at about half the
  /// workload's closed-phase rate on seed 1.
  double open_rate = 0.5;
};

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  Workload w;
  w.name = name;
  auto raw_query = [&](int i, const Box& box, int conn) {
    // Band index 0 is goes.band2 (NIR), 1 is goes.band1 (VIS).
    const int band = i % 2;
    QuerySpec q;
    q.text = StringPrintf("region(goes.band%d, %s)", band == 0 ? 2 : 1,
                          BoxText(box).c_str());
    q.conn = conn;
    q.band_regions = {{band, box}};
    q.raw = true;
    return q;
  };
  if (name == "regional_fanout") {
    w.subscriber_conns = 2;
    w.open_rate = 0.55;
    for (int i = 0; i < 256; ++i) {
      w.queries.push_back(raw_query(i, ConusBox(rng, 3.0, 6.0), (i / 2) % 2));
    }
  } else if (name == "ndvi_products") {
    w.subscriber_conns = 1;
    w.encode_png = true;
    w.workers = 2;
    w.open_rate = 3.0;
    // 24 s of open phase, 576 latency samples: the 8 frames of one scan
    // share its delays, so with fewer a single slow scan sets
    // latency_p99_ms.
    w.min_open_scans = 72;
    for (int r = 0; r < 2; ++r) {
      // 12-degree squares, one in the southern and one in the northern
      // half of CONUS; the seed picks their longitudes. Which scan rows
      // carry product work then does not depend on the seed (two
      // products on the same rows make ingest bursty, which changes how
      // often the producer's ack window fills).
      std::uniform_real_distribution<double> lon(-125.0, -66.0 - 12.0);
      const double x0 = lon(rng), y0 = r == 0 ? 26.0 : 38.0;
      const Box box{x0, y0, x0 + 12.0, y0 + 12.0};
      const std::string bb = BoxText(box);
      const std::vector<std::pair<int, Box>> both = {{0, box}, {1, box}};
      w.queries.push_back(
          {"region(ndvi(goes.band2, goes.band1), " + bb + ")", 0, both});
      w.queries.push_back(
          {"region(reproject(ndvi(goes.band2, goes.band1), \"mercator\"), " +
               BoxText(MercatorOf(box)) + ")",
           0, both});
      w.queries.push_back(
          {"vrange(region(goes.band2, " + bb + "), 0, 0.3, 1.0)", 0, {{0, box}}});
      w.queries.push_back(
          {"stretch(region(goes.band1, " + bb + "), \"linear\")", 0, {{1, box}}});
    }
  } else if (name == "durable_history") {
    w.subscriber_conns = 1;
    w.durable = true;
    w.open_rate = 0.55;
    w.history_scans = 40;
    // Two catch-ups (scans 3 and 11) inside every open phase: the
    // scans they overlap carry the latency tail, so with one catch-up
    // latency_p99_ms would follow a single race.
    w.min_open_scans = 12;
    for (int i = 0; i < 16; ++i) {
      w.queries.push_back(raw_query(i, ConusBox(rng, 3.0, 6.0), 0));
    }
    w.catchup = raw_query(0, ConusBox(rng, 3.0, 6.0), 1);
  } else {
    Die("unknown workload '" + name +
        "' (regional_fanout, ndvi_products, durable_history)");
  }
  return w;
}

/// Every query whose frames the gate checks: the live ones, then the
/// catch-up query.
std::vector<QuerySpec> AllQueries(const Workload& w) {
  std::vector<QuerySpec> all = w.queries;
  if (w.durable) all.push_back(w.catchup);
  return all;
}

// ---------------------------------------------------------------------------
// Reference

struct Reference {
  /// refs[query][content] -> the frame of that query for scan content
  /// `content` (absent when the query yields no frame for it).
  std::vector<std::map<int, RefFrame>> refs;
  /// raw[query]: a raw region query (QuerySpec::raw).
  std::vector<bool> raw;
  double engine_seconds = 0.0;
  int64_t engine_points = 0;
  /// A few delivered rasters, for the PNG encode replay.
  std::vector<Raster> sample_rasters;
};

Reference ComputeReference(const Workload& w, const Inputs& in) {
  DsmsOptions options;
  options.encode_png = w.encode_png;
  DsmsServer server(options);
  for (const auto& d : in.descs) CheckOk(server.RegisterStream(d), "ref stream");
  const std::vector<QuerySpec> all = AllQueries(w);
  Reference ref;
  ref.refs.resize(all.size());
  for (const QuerySpec& q : all) ref.raw.push_back(q.raw);
  for (size_t q = 0; q < all.size(); ++q) {
    auto id = server.RegisterQuery(
        all[q].text, [&ref, q](int64_t frame_id, const Raster& raster,
                               const std::vector<uint8_t>& png) {
          RefFrame f;
          f.width = static_cast<uint32_t>(raster.width());
          f.height = static_cast<uint32_t>(raster.height());
          f.bands = static_cast<uint16_t>(raster.bands());
          f.png = !png.empty();
          if (f.png) {
            f.png_bytes = png;
          } else {
            f.checksum = SampleChecksum(raster.data().data(), raster.data().size());
          }
          ref.refs[q][static_cast<int>(frame_id)] = std::move(f);
          if (ref.sample_rasters.size() < 8) ref.sample_rasters.push_back(raster);
        });
    CheckOk(id.status(), "ref query " + all[q].text);
  }
  std::vector<EventSink*> sinks;
  for (const auto& d : in.descs) sinks.push_back(server.ingest(d.name()));
  const int64_t t0 = NowNs();
  for (const ScanEvents& scan : in.contents) {
    for (const Event& e : scan.events) {
      CheckOk(sinks[static_cast<size_t>(e.band)]->Consume(e.ev), "ref ingest");
    }
    ref.engine_points += scan.points;
  }
  ref.engine_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  // Useful cells of raw region queries: source cells inside the
  // query's lat/lon region.
  for (size_t q = 0; q < all.size(); ++q) {
    if (!all[q].raw) continue;
    const Box& box = all[q].band_regions[0].second;
    for (auto& [content, f] : ref.refs[q]) {
      const GridLattice& lat =
          in.contents[static_cast<size_t>(content)].events.front().ev.frame.lattice;
      int64_t cols = 0, rows = 0;
      for (int64_t c = 0; c < lat.width(); ++c) {
        const double x = lat.CellX(c);
        if (x >= box.x0 && x <= box.x1) ++cols;
      }
      for (int64_t r = 0; r < lat.height(); ++r) {
        const double y = lat.CellY(r);
        if (y >= box.y0 && y <= box.y1) ++rows;
      }
      f.useful_cells = static_cast<uint64_t>(cols * rows);
    }
  }
  return ref;
}

// ---------------------------------------------------------------------------
// The run

/// Engine ingest wrapper installed through NetServerOptions::
/// ingest_resolver in traced runs: time inside DsmsServer::ingest().
class TimedIngestSink : public EventSink {
 public:
  TimedIngestSink(EventSink* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  Status Consume(const StreamEvent& event) override {
    const int64_t t0 = NowNs();
    Status st = inner_->Consume(event);
    const int64_t t1 = NowNs();
    busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    int64_t frame = -1;
    if (event.kind == EventKind::kPointBatch) {
      frame = event.batch->frame_id;
    } else if (event.kind != EventKind::kStreamEnd) {
      frame = event.frame.frame_id;
    }
    spans_->Add("ingest", t0, t1, frame);
    return st;
  }
  int64_t busy_ns() const { return busy_ns_.load(); }

 private:
  EventSink* inner_;
  SpanRecorder* spans_;
  std::atomic<int64_t> busy_ns_{0};
};

struct RunConfig {
  bool traced = false;     // trace_sample_every=1 + spans
  bool open_phase = true;  // false: closed phase only
  int setup_reps = 9;
  double closed_budget_s = 5.0;
  int64_t open_scans = 4;
};

struct RunResult {
  double setup_s = 0.0;
  double throughput_mpts = 0.0;
  int64_t closed_scans = 0;
  double closed_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> generator_lag_ms;
  Gate::Tally tally;
  uint64_t publishes = 0;
  uint64_t publish_errors = 0;
  uint64_t catchup_failed = 0;
  uint64_t catchup_attempted = 0;
  uint64_t catchup_frames_ok = 0;
  uint64_t catchup_useful_cells = 0;
  std::vector<double> catchup_s;
  double peak_rss_mb = 0.0;
  // Layer counters.
  double publish_s = 0.0;
  double window_stall_s = 0.0;
  uint64_t window_stalls = 0;
  uint64_t published = 0;
  uint64_t retransmits = 0;
  double read_s = 0.0;
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
  uint64_t useful_cells = 0;
  uint64_t shipped_cells = 0;
  double ingest_busy_s = 0.0;
  double phases_s = 0.0;
  double register_ms_per_query = 0.0;
  int64_t points_ingested = 0;
  std::vector<PromSample> metrics;
  std::vector<Span> spans;
  /// Per open-phase scan: (frame id, due time of its last event).
  std::map<int64_t, int64_t> due_last_ns;
  std::vector<std::pair<int64_t, int64_t>> frame_recv;  // (frame, recv ns)
};

int64_t ProcStatusKb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::atoll(line.c_str() + n + 1);
  }
  return 0;
}

/// Resets the kernel's peak-RSS mark so VmHWM covers only what follows.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

int64_t ParseQueryId(const std::string& response) {
  if (!StartsWith(response, "OK QUERY ")) Die("QUERY failed: " + response);
  return std::atoll(response.c_str() + 9);
}

/// One server instance plus the benchmark's connections to it.
struct Harness {
  std::unique_ptr<DsmsServer> server;
  std::vector<std::unique_ptr<TimedIngestSink>> timed;
  std::unique_ptr<NetServer> net;
  std::vector<std::unique_ptr<GeoStreamsClient>> subscribers;
  std::vector<std::unique_ptr<ProducerClient>> producers;
  std::unique_ptr<GeoStreamsClient> catchup_client;
  std::map<int64_t, int> query_index;  // server query id -> query index

  void Stop() {
    for (auto& p : producers) p->Close();
    for (auto& s : subscribers) s->Close();
    if (catchup_client) catchup_client->Close();
    if (net) net->Stop();
    net.reset();
    server.reset();
    timed.clear();
    producers.clear();
    subscribers.clear();
    catchup_client.reset();
    query_index.clear();
  }
};

DsmsOptions ServerOptions(const Workload& w, const std::string& dir, bool traced) {
  DsmsOptions options;
  options.encode_png = w.encode_png;
  options.workers = w.workers;
  if (traced) options.trace_sample_every = 1;
  if (w.durable) {
    options.journal_dir = dir + "/journal";
    options.store_dir = dir + "/store";
    options.store.retention_max_frames = 32;
    options.store.gc_interval_ms = 100;
  }
  return options;
}

/// Constructs the server (recovering journal and store), starts the
/// NetServer, connects every client and registers every query.
void SetUp(const Workload& w, const Inputs& in, const std::string& dir,
           bool traced, SpanRecorder* spans, Harness* h,
           double* register_ms_per_query) {
  h->server = std::make_unique<DsmsServer>(ServerOptions(w, dir, traced));
  for (const auto& d : in.descs) CheckOk(h->server->RegisterStream(d), "stream");
  NetServerOptions net_options;
  if (traced) {
    std::map<std::string, EventSink*> sinks;
    for (const auto& d : in.descs) {
      h->timed.push_back(
          std::make_unique<TimedIngestSink>(h->server->ingest(d.name()), spans));
      sinks[d.name()] = h->timed.back().get();
    }
    net_options.ingest_resolver = [sinks](const std::string& name) -> EventSink* {
      auto it = sinks.find(name);
      return it == sinks.end() ? nullptr : it->second;
    };
  }
  h->net = std::make_unique<NetServer>(h->server.get(), std::move(net_options));
  CheckOk(h->net->Start(), "net start");
  for (int c = 0; c < w.subscriber_conns; ++c) {
    h->subscribers.push_back(std::make_unique<GeoStreamsClient>());
    CheckOk(h->subscribers.back()->Connect("127.0.0.1", h->net->port(), 5000),
            "subscriber connect");
  }
  if (w.durable) {
    h->catchup_client = std::make_unique<GeoStreamsClient>();
    CheckOk(h->catchup_client->Connect("127.0.0.1", h->net->port(), 5000),
            "catch-up connect");
  }
  const int64_t t0 = NowNs();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const int64_t s0 = NowNs();
    auto r = h->subscribers[static_cast<size_t>(w.queries[q].conn)]->Command(
        "QUERY " + w.queries[q].text, 30000);
    CheckOk(r.status(), "QUERY");
    spans->Add("query", s0, NowNs(), -1);
    h->query_index[ParseQueryId(*r)] = static_cast<int>(q);
  }
  *register_ms_per_query = static_cast<double>(NowNs() - t0) * 1e-6 /
                           static_cast<double>(w.queries.size());
  for (const auto& d : in.descs) {
    ProducerClientOptions po;
    po.port = h->net->port();
    po.source = d.name();
    h->producers.push_back(std::make_unique<ProducerClient>(po));
    CheckOk(h->producers.back()->Connect(), "producer connect");
  }
}

/// Pre-fills the store of durable_history with history scans, through
/// the engine in-process (not timed, not part of setup).
void PrefillHistory(const Workload& w, const Inputs& in, const std::string& dir) {
  DsmsServer server(ServerOptions(w, dir, false));
  for (const auto& d : in.descs) CheckOk(server.RegisterStream(d), "stream");
  std::vector<EventSink*> sinks;
  for (const auto& d : in.descs) sinks.push_back(server.ingest(d.name()));
  for (int64_t k = 0; k < w.history_scans; ++k) {
    for (const Event& e : in.scans[static_cast<size_t>(k)].events) {
      CheckOk(sinks[static_cast<size_t>(e.band)]->Consume(e.ev), "prefill");
    }
  }
  if (server.store() != nullptr) CheckOk(server.store()->SyncAll(), "store sync");
}

struct ReaderStats {
  int64_t read_ns = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  uint64_t useful = 0;
  uint64_t shipped = 0;
  std::vector<double> latency_ms;
  std::vector<std::pair<int64_t, int64_t>> recv;
  std::string error;
};

/// Reads one subscriber connection until told to stop, checking every
/// frame against the gate.
void ReaderLoop(GeoStreamsClient* client, const std::map<int64_t, int>* index,
                Gate* gate, const std::vector<std::atomic<int64_t>>* due_last,
                const Reference* ref, std::atomic<bool>* stop,
                SpanRecorder* spans, ReaderStats* stats) {
  while (!stop->load()) {
    const int64_t t0 = NowNs();
    auto got = client->ReadFrame(50);
    const int64_t t1 = NowNs();
    stats->read_ns += t1 - t0;
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kUnavailable) continue;
      stats->error = got.status().ToString();
      return;
    }
    const FrameMessage& m = *got;
    auto it = index->find(m.query_id);
    const int q = it == index->end() ? -1 : it->second;
    spans->Add("read_frame", t0, t1, m.frame_id);
    ++stats->frames;
    stats->bytes += kWireHeaderSize + kFramePreambleSize +
                    (m.png ? m.png_bytes.size() : m.samples.size() * sizeof(double));
    stats->recv.push_back({m.frame_id, t1});
    const Gate::Verdict v = gate->Observe(q, m);
    if (v == Gate::Verdict::kOk) {
      const auto& by_content = ref->refs[static_cast<size_t>(q)];
      const RefFrame& rf =
          by_content.at(static_cast<int>(m.frame_id % kContents));
      if (ref->raw[static_cast<size_t>(q)]) {
        stats->useful += rf.useful_cells;
        stats->shipped += static_cast<uint64_t>(rf.width) * rf.height;
      }
      if (m.frame_id >= 0 &&
          m.frame_id < static_cast<int64_t>(due_last->size()) &&
          (*due_last)[static_cast<size_t>(m.frame_id)].load() > 0) {
        stats->latency_ms.push_back(
            static_cast<double>(t1 - (*due_last)[static_cast<size_t>(m.frame_id)].load()) * 1e-6);
      }
    }
  }
}

/// durable_history's catch-up subscriber: on each trigger, `QUERY
/// <catchup> SINCE <oldest retained>`, read until the newest published
/// scan's frame, `UNREGISTER`.
class CatchUpDriver {
 public:
  CatchUpDriver(const Workload& w, const Reference& ref, Harness* h,
                const std::string& source, SpanRecorder* spans)
      : w_(w), ref_(ref), h_(h), source_(source), spans_(spans),
        thread_([this] { Loop(); }) {}
  ~CatchUpDriver() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CatchUpDriver(const CatchUpDriver&) = delete;
  CatchUpDriver& operator=(const CatchUpDriver&) = delete;

  /// Requests a catch-up ending at frame `target` (skipped when one is
  /// still running).
  void Trigger(int64_t target) {
    std::lock_guard<std::mutex> lock(mu_);
    if (busy_ || pending_ >= 0) return;
    pending_ = target;
    cv_.notify_all();
  }
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !busy_ && pending_ < 0; });
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Frames that matched the reference and the source cells inside the
  /// catch-up region they carry (the points a store scan reads).
  uint64_t frames_ok = 0;
  uint64_t useful_cells = 0;
  std::vector<double> seconds;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return quit_ || pending_ >= 0; });
      if (quit_) return;
      const int64_t target = pending_;
      pending_ = -1;
      busy_ = true;
      lock.unlock();
      RunOne(target);
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  void RunOne(int64_t target) {
    GeoStreamsClient* c = h_->catchup_client.get();
    const int cq = static_cast<int>(w_.queries.size());
    const int64_t since = h_->server->store()->Horizon(source_).oldest_frame_id;
    const int64_t t0 = NowNs();
    auto r = c->Command("QUERY " + w_.catchup.text + " SINCE " +
                            std::to_string(since), 60000);
    CheckOk(r.status(), "QUERY SINCE");
    const int64_t id = ParseQueryId(*r);
    spans_->Add("since", t0, NowNs(), target);
    std::vector<FrameMessage> frames;
    // Oldest retained frame once the first frame is in: the server
    // picked its replay range before sending it, so retention can have
    // taken no frame above this one from that range.
    int64_t horizon_at_first = since;
    int64_t done_ns = 0;
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (NowNs() < deadline) {
      auto got = c->ReadFrame(1000);
      if (!got.ok()) {
        if (got.status().code() == StatusCode::kUnavailable) continue;
        break;
      }
      if (got->query_id != id || got->frame_id > target) continue;
      if (frames.empty()) {
        horizon_at_first = h_->server->store()->Horizon(source_).oldest_frame_id;
      }
      frames.push_back(std::move(*got));
      if (frames.back().frame_id == target) {
        done_ns = NowNs();
        break;
      }
    }
    auto u = c->Command("UNREGISTER " + std::to_string(id), 30000);
    CheckOk(u.status(), "UNREGISTER");
    while (c->pending_frames() > 0) (void)c->ReadFrame(1);
    // The server clamps SINCE to what retention still holds, so the
    // range may start above `since`, but only at frames retention took
    // before the first frame arrived; from there it must run gap-free
    // to the target. Anything else is a missing frame.
    int64_t first = since;
    if (!frames.empty()) {
      first = std::max(since, std::min(frames.front().frame_id, horizon_at_first));
    }
    Gate gate;
    const auto& by_content = ref_.refs[static_cast<size_t>(cq)];
    for (int64_t k = first; k <= target; ++k) {
      auto it = by_content.find(static_cast<int>(k % kContents));
      if (it != by_content.end()) gate.Expect(cq, k, &it->second);
    }
    for (const FrameMessage& m : frames) {
      if (gate.Observe(cq, m) != Gate::Verdict::kOk) continue;
      ++frames_ok;
      useful_cells += by_content.at(static_cast<int>(m.frame_id % kContents)).useful_cells;
    }
    const Gate::Tally t = gate.Finish();
    attempted += t.expected;
    failed += t.failed();
    if (done_ns > 0) seconds.push_back(static_cast<double>(done_ns - t0) * 1e-9);
  }

  const Workload& w_;
  const Reference& ref_;
  Harness* h_;
  std::string source_;
  SpanRecorder* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool quit_ = false;
  bool busy_ = false;
  int64_t pending_ = -1;
  std::thread thread_;  // last: starts after the members it reads
};

/// Reads `lines=<n>` payload lines after a METRICS header.
std::vector<std::string> ScrapeMetrics(GeoStreamsClient* client) {
  auto header = client->Command("METRICS", 30000);
  CheckOk(header.status(), "METRICS");
  const size_t at = header->find("lines=");
  if (at == std::string::npos) Die("bad METRICS header: " + *header);
  const size_t n = std::stoull(header->substr(at + 6));
  std::vector<std::string> lines;
  while (lines.size() < n) {
    auto unit = client->ReadNext(30000);
    CheckOk(unit.status(), "METRICS payload");
    if (unit->eof) Die("METRICS: connection closed");
    if (unit->line) lines.push_back(*unit->line);
  }
  return lines;
}

RunResult Run(const Workload& w, const Inputs& in, const Reference& ref,
              const std::string& dir, const RunConfig& cfg) {
  RunResult res;
  SpanRecorder spans(cfg.traced);
  Harness h;

  // Set up several times; the last instance serves the phases.
  std::vector<double> setups;
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (w.durable) PrefillHistory(w, in, dir);
  ResetPeakRss();
  const int64_t rss_base_kb = ProcStatusKb("VmRSS:");
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    if (rep > 0) h.Stop();
    const int64_t t0 = NowNs();
    SetUp(w, in, dir, cfg.traced, &spans, &h, &res.register_ms_per_query);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  res.setup_s = Median(setups);

  const int64_t first_scan = w.history_scans;
  const int64_t max_scan = static_cast<int64_t>(in.scans.size());
  // Due time of each open-phase scan's last event (0 = closed phase);
  // written by the producer thread, read by the subscriber readers.
  std::vector<std::atomic<int64_t>> due_last(in.scans.size());
  Gate gate;
  auto expect_scan = [&](int64_t k) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const auto& by_content = ref.refs[q];
      auto it = by_content.find(static_cast<int>(k % kContents));
      if (it != by_content.end()) gate.Expect(static_cast<int>(q), k, &it->second);
    }
  };

  std::atomic<bool> stop{false};
  std::vector<ReaderStats> reader_stats(h.subscribers.size());
  std::vector<std::thread> readers;
  for (size_t c = 0; c < h.subscribers.size(); ++c) {
    readers.emplace_back(ReaderLoop, h.subscribers[c].get(), &h.query_index,
                         &gate, &due_last, &ref, &stop, &spans, &reader_stats[c]);
  }
  std::unique_ptr<CatchUpDriver> catchup;
  const int catchup_band = w.durable ? w.catchup.band_regions[0].first : -1;
  if (w.durable) {
    catchup = std::make_unique<CatchUpDriver>(
        w, ref, &h, in.descs[static_cast<size_t>(catchup_band)].name(), &spans);
  }

  int64_t publish_ns = 0, stall_ns = 0;
  // `j` is the scan's index within its phase. durable_history's
  // catch-up runs every 8 scans from the 4th scan of each phase, so
  // every open phase has two at the same places. It starts
  // kCatchUpLeadEvents events before the scan's FrameEnd on the
  // catch-up band and ends at the scan before it: its registration is
  // done and its store scans are under way when that FrameEnd's
  // PutFrame runs and retention prunes the frame behind it.
  constexpr int64_t kCatchUpLeadEvents = 4;
  auto publish_scan = [&](int64_t k, int64_t j, int64_t start_ns, int64_t period_ns) {
    const ScanEvents& scan = in.scans[static_cast<size_t>(k)];
    const int64_t n = static_cast<int64_t>(scan.events.size());
    if (period_ns > 0) due_last[static_cast<size_t>(k)].store(start_ns + (n - 1) * period_ns / n);
    for (int64_t i = 0; i < n; ++i) {
      const Event& e = scan.events[static_cast<size_t>(i)];
      if (catchup && j % 8 == 3 && i + kCatchUpLeadEvents < n) {
        const Event& end = scan.events[static_cast<size_t>(i + kCatchUpLeadEvents)];
        if (end.band == catchup_band && end.ev.kind == EventKind::kFrameEnd) {
          catchup->Trigger(k - 1);
        }
      }
      if (period_ns > 0) {
        const int64_t due = start_ns + i * period_ns / n;
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        res.generator_lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
      }
      ProducerClient* p = h.producers[static_cast<size_t>(e.band)].get();
      const uint64_t stalls_before = p->stats().window_stalls;
      const int64_t t0 = NowNs();
      const Status st = p->Publish(e.ev);
      const int64_t t1 = NowNs();
      publish_ns += t1 - t0;
      if (p->stats().window_stalls != stalls_before) stall_ns += t1 - t0;
      spans.Add("publish", t0, t1, k);
      ++res.publishes;
      if (!st.ok()) ++res.publish_errors;
    }
    res.points_ingested += scan.points;
  };
  auto flush = [&](int64_t trace) {
    for (auto& p : h.producers) {
      const int64_t t0 = NowNs();
      const Status st = p->Flush(60000);
      spans.Add("flush", t0, NowNs(), trace);
      if (!st.ok()) ++res.publish_errors;
    }
  };

  g_timed_phase = true;
  const int64_t phases_t0 = NowNs();
  // Closed phase: publish back to back until the budget is spent and a
  // whole cycle of kContents scans is out, then wait for every expected
  // frame. Both phases publish whole cycles, so every run sees the same
  // mix of scan sectors.
  int64_t k = first_scan;
  const int64_t closed_t0 = NowNs();
  const int64_t closed_budget = static_cast<int64_t>(cfg.closed_budget_s * 1e9);
  int64_t closed_points = 0;
  while (k < max_scan && (k == first_scan || (k - first_scan) % kContents != 0 ||
                          NowNs() - closed_t0 < closed_budget)) {
    expect_scan(k);
    publish_scan(k, k - first_scan, 0, 0);
    closed_points += in.scans[static_cast<size_t>(k)].points;
    ++k;
  }
  flush(k - 1);
  gate.WaitArrived(gate.Expected(), NowNs() + 30'000'000'000);
  const int64_t closed_t1 = NowNs();
  res.closed_scans = k - first_scan;
  res.closed_s = static_cast<double>(closed_t1 - closed_t0) * 1e-9;
  res.throughput_mpts = static_cast<double>(closed_points) / res.closed_s / 1e6;

  if (cfg.open_phase) {
    const int64_t period = static_cast<int64_t>(1e9 / w.open_rate);
    const int64_t open_t0 = NowNs() + 20'000'000;
    for (int64_t j = 0; j < cfg.open_scans && k < max_scan; ++j, ++k) {
      expect_scan(k);
      publish_scan(k, j, open_t0 + j * period, period);
    }
    flush(k - 1);
    gate.WaitArrived(gate.Expected(), NowNs() + 30'000'000'000);
  }
  if (catchup) catchup->WaitIdle();
  res.phases_s = static_cast<double>(NowNs() - phases_t0) * 1e-9;
  g_timed_phase = false;

  stop = true;
  for (auto& t : readers) t.join();
  res.peak_rss_mb =
      static_cast<double>(ProcStatusKb("VmHWM:") - rss_base_kb) / 1024.0;
  res.tally = gate.Finish();
  for (ReaderStats& s : reader_stats) {
    if (!s.error.empty()) Die("subscriber read failed: " + s.error);
    res.read_s += static_cast<double>(s.read_ns) * 1e-9;
    res.frames_received += s.frames;
    res.bytes_received += s.bytes;
    res.useful_cells += s.useful;
    res.shipped_cells += s.shipped;
    res.latency_ms.insert(res.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    res.frame_recv.insert(res.frame_recv.end(), s.recv.begin(), s.recv.end());
  }
  if (catchup) {
    res.catchup_attempted = catchup->attempted;
    res.catchup_failed = catchup->failed;
    res.catchup_frames_ok = catchup->frames_ok;
    res.catchup_useful_cells = catchup->useful_cells;
    res.catchup_s = catchup->seconds;
    catchup.reset();
  }
  for (auto& p : h.producers) {
    res.published += p->stats().published;
    res.retransmits += p->stats().retransmits;
    res.window_stalls += p->stats().window_stalls;
  }
  res.publish_s = static_cast<double>(publish_ns) * 1e-9;
  res.window_stall_s = static_cast<double>(stall_ns) * 1e-9;
  for (const auto& t : h.timed) res.ingest_busy_s += static_cast<double>(t->busy_ns()) * 1e-9;
  for (size_t s = 0; s < due_last.size(); ++s) {
    if (due_last[s].load() > 0) res.due_last_ns[static_cast<int64_t>(s)] = due_last[s].load();
  }
  if (cfg.traced) {
    res.metrics = ParseExposition(ScrapeMetrics(h.subscribers[0].get()));
  }
  h.Stop();
  res.spans = spans.Snapshot();
  fs::remove_all(dir);
  return res;
}

// ---------------------------------------------------------------------------
// Layer replays (traced run): each module's public calls, timed from here.

struct Replays {
  double encode_ns_per_point = 0, decode_ns_per_point = 0;
  double route_ns_per_point = 0, fanout_factor = 0;
  double plan_us_per_query = 0;
  double assemble_ns_per_cell = 0;
  double png_ms_per_frame = 0;
  std::map<std::string, double> journal_append_us_p50;
};

class CountingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kPointBatch) points += event.batch->size();
    return Status::OK();
  }
  uint64_t points = 0;
};

Replays RunReplays(const Workload& w, const Inputs& in, const Reference& ref,
                   const std::string& dir, SpanRecorder* spans) {
  Replays r;
  const int64_t root = spans->Open("replay", NowNs(), -1);
  int64_t points = 0;
  for (const ScanEvents& s : in.contents) points += s.points;

  {  // net.wire: GSF1 ingest encode + FrameDecoder.
    std::vector<std::vector<uint8_t>> wire;
    const int64_t t0 = NowNs();
    uint64_t seq = 1;
    for (const ScanEvents& s : in.contents) {
      for (const Event& e : s.events) {
        IngestMessage m;
        m.source = in.descs[static_cast<size_t>(e.band)].name();
        m.seq = seq++;
        m.capture_wall_us = TraceWallNowUs();
        m.event = e.ev;
        wire.push_back(EncodeIngestMessage(m));
      }
    }
    const int64_t t1 = NowNs();
    FrameDecoder decoder;
    uint64_t decoded = 0;
    for (const auto& bytes : wire) {
      decoder.Feed(bytes.data(), bytes.size());
      for (;;) {
        auto unit = decoder.Next();
        CheckOk(unit.status(), "replay decode");
        if (!unit->has_value()) break;
        ++decoded;
      }
    }
    const int64_t t2 = NowNs();
    if (decoded != wire.size()) Die("replay decode lost messages");
    spans->Add("replay.wire_encode", t0, t1, -1, root);
    spans->Add("replay.wire_decode", t1, t2, -1, root);
    r.encode_ns_per_point = static_cast<double>(t1 - t0) / static_cast<double>(points);
    r.decode_ns_per_point = static_cast<double>(t2 - t1) / static_cast<double>(points);
  }

  {  // mqo: SharedRestrictionOp over the workload's lat/lon regions.
    int64_t ns = 0;
    uint64_t routed_in = 0, routed_out = 0;
    for (size_t band = 0; band < in.descs.size(); ++band) {
      SharedRestrictionOp op(std::make_unique<CascadeTree>(
          in.descs[band].reference_lattice().Extent()));
      std::vector<std::unique_ptr<CountingSink>> sinks;
      QueryId id = 1;
      for (const QuerySpec& q : AllQueries(w)) {
        for (const auto& [b, box] : q.band_regions) {
          if (static_cast<size_t>(b) != band) continue;
          sinks.push_back(std::make_unique<CountingSink>());
          CheckOk(op.RegisterQuery(id++, std::make_shared<BBoxRegion>(box.x0, box.y0, box.x1, box.y1),
                                   sinks.back().get()),
                  "mqo register");
        }
      }
      if (sinks.empty()) continue;
      const int64_t t0 = NowNs();
      for (const ScanEvents& s : in.contents) {
        for (const Event& e : s.events) {
          if (static_cast<size_t>(e.band) != band) continue;
          CheckOk(op.Consume(e.ev), "mqo consume");
          if (e.ev.kind == EventKind::kPointBatch) routed_in += e.ev.batch->size();
        }
      }
      const int64_t t1 = NowNs();
      spans->Add("replay.mqo_route", t0, t1, -1, root);
      ns += t1 - t0;
      for (const auto& s : sinks) routed_out += s->points;
    }
    if (routed_in > 0) {
      r.route_ns_per_point = static_cast<double>(ns) / static_cast<double>(routed_in);
      r.fanout_factor = static_cast<double>(routed_out) / static_cast<double>(routed_in);
    }
  }

  {  // query: parse, analyze, optimize, plan.
    StreamCatalog catalog;
    for (const auto& d : in.descs) CheckOk(catalog.Register(d), "catalog");
    CountingSink sink;
    const std::vector<QuerySpec> all = AllQueries(w);
    const int64_t t0 = NowNs();
    for (const QuerySpec& q : all) {
      auto parsed = ValueOrDie(ParseQuery(q.text), "parse");
      CheckOk(AnalyzeQuery(catalog, parsed), "analyze");
      auto optimized = ValueOrDie(OptimizeQuery(catalog, parsed, OptimizerOptions()), "optimize");
      auto plan = ValueOrDie(BuildPlan(optimized, &sink), "plan");
    }
    const int64_t t1 = NowNs();
    spans->Add("replay.query_plan", t0, t1, -1, root);
    r.plan_us_per_query = static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(all.size());
  }

  {  // raster: FrameAssembler over band 0 of every content scan.
    int64_t cells = 0;
    const int64_t t0 = NowNs();
    for (const ScanEvents& s : in.contents) {
      FrameAssembler assembler(std::nan(""));
      for (const Event& e : s.events) {
        if (e.band != 0) continue;
        if (e.ev.kind == EventKind::kFrameBegin) {
          CheckOk(assembler.Begin(e.ev.frame, 1), "assemble begin");
          cells += e.ev.frame.lattice.num_cells();
        } else if (e.ev.kind == EventKind::kPointBatch) {
          CheckOk(assembler.Add(*e.ev.batch), "assemble add");
        } else if (e.ev.kind == EventKind::kFrameEnd) {
          CheckOk(assembler.Finish().status(), "assemble finish");
        }
      }
    }
    const int64_t t1 = NowNs();
    spans->Add("replay.frame_assemble", t0, t1, -1, root);
    r.assemble_ns_per_cell = static_cast<double>(t1 - t0) / static_cast<double>(cells);
  }

  if (!ref.sample_rasters.empty()) {  // raster: PNG encode of delivered rasters.
    const int64_t t0 = NowNs();
    for (const Raster& raster : ref.sample_rasters) {
      CheckOk(RasterToPng(raster).status(), "png");
    }
    const int64_t t1 = NowNs();
    spans->Add("replay.png_encode", t0, t1, -1, root);
    r.png_ms_per_frame = static_cast<double>(t1 - t0) * 1e-6 /
                         static_cast<double>(ref.sample_rasters.size());
  }

  // storage: journal appends of one scan's band-0 rows per fsync policy.
  const std::pair<const char*, FsyncPolicy> policies[] = {
      {"per_record", FsyncPolicy::kPerRecord},
      {"group_commit", FsyncPolicy::kGroupCommit},
      {"off", FsyncPolicy::kOff}};
  for (const auto& [label, policy] : policies) {
    const std::string jdir = dir + "/replay-journal-" + label;
    fs::remove_all(jdir);
    JournalOptions jo;
    jo.dir = jdir;
    jo.fsync = policy;
    std::vector<double> us;
    {
      auto journal = ValueOrDie(IngestJournal::Open(jo), "journal open");
      SourceJournal* sj = ValueOrDie(journal->SourceFor(in.descs[0].name()), "journal source");
      uint64_t seq = 1;
      const int64_t t0 = NowNs();
      for (const Event& e : in.contents[1].events) {
        if (e.band != 0 || us.size() >= 128) continue;
        IngestMessage m;
        m.source = in.descs[0].name();
        m.seq = seq++;
        m.event = e.ev;
        const int64_t a0 = NowNs();
        CheckOk(sj->Append(m), "journal append");
        us.push_back(static_cast<double>(NowNs() - a0) * 1e-3);
      }
      spans->Add(std::string("replay.journal_append.") + label, t0, NowNs(), -1, root);
    }
    fs::remove_all(jdir);
    r.journal_append_us_p50[label] = Median(us);
  }
  spans->Close(root, NowNs());
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// Attempted operations are expected result frames (live and
/// replayed) plus publishes; failed ones are frames missing, duplicated,
/// different or unexpected, and publishes that returned an error. The
/// output is incorrect when any expected frame is missing, or any
/// delivered frame differs from the reference, repeats or was never
/// expected, or the generator ran inside a timed phase.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
  double failed_ratio() const {
    return static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));
  }
};

Outcome OutcomeOf(const RunResult& res) {
  Outcome o;
  o.attempted = res.tally.expected + res.publishes + res.catchup_attempted;
  o.failed = res.tally.failed() + res.publish_errors + res.catchup_failed;
  o.correct = res.tally.failed() == 0 && res.catchup_failed == 0 &&
              g_generator_calls_timed.load() == 0;
  return o;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0.0;
    out += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                        metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("== %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %-10s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

/// Self time on the blocking path of each open-phase result frame,
/// from its scan's last due time to its receipt, attributed in order:
/// engine ingest, then producer Publish, then client ReadFrame (which
/// includes the reader's wait for bytes, so server work outside the
/// ingest call — the worker pool — lands there); the remainder is time
/// no benchmark span covers.
std::vector<std::pair<std::string, double>> BlockingPathSplit(const RunResult& res) {
  std::map<int64_t, std::map<std::string, std::vector<std::pair<int64_t, int64_t>>>> by_trace;
  for (const Span& s : res.spans) {
    if (s.trace >= 0) by_trace[s.trace][s.name].push_back({s.start_ns, s.end_ns});
  }
  const char* order[] = {"ingest", "publish", "read_frame"};
  std::map<std::string, std::vector<double>> per_layer;
  std::vector<double> totals;
  for (const auto& [frame, recv] : res.frame_recv) {
    auto due = res.due_last_ns.find(frame);
    if (due == res.due_last_ns.end() || recv <= due->second) continue;
    const int64_t lo = due->second, hi = recv;
    std::vector<std::pair<int64_t, int64_t>> claimed;
    int64_t attributed = 0;
    for (const char* layer : order) {
      auto spans = by_trace[frame][layer];
      const int64_t before = CoveredNs(claimed, lo, hi);
      claimed.insert(claimed.end(), spans.begin(), spans.end());
      const int64_t after = CoveredNs(claimed, lo, hi);
      per_layer[layer].push_back(static_cast<double>(after - before) * 1e-6);
      attributed += after - before;
    }
    per_layer["other"].push_back(static_cast<double>(hi - lo - attributed) * 1e-6);
    totals.push_back(static_cast<double>(hi - lo) * 1e-6);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const char* layer : {"ingest", "publish", "read_frame", "other"}) {
    out.push_back({layer, Median(per_layer[layer])});
  }
  out.push_back({"latency_p50", Median(totals)});
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  const std::vector<int64_t> self = SelfTimes(spans);
  for (const Span& s : spans) {
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"trace\": " << s.trace << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"self_ns\": " << self[static_cast<size_t>(s.id)] << "}\n";
  }
}

/// Gives every scan's spans a root span covering them (trace id = the
/// scan's frame id), so self times split each scan by layer.
void AttachScanRoots(std::vector<Span>* spans) {
  std::map<int64_t, std::pair<int64_t, int64_t>> extent;
  for (const Span& s : *spans) {
    if (s.trace < 0 || s.parent >= 0) continue;
    auto [it, fresh] = extent.insert({s.trace, {s.start_ns, s.end_ns}});
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::map<int64_t, int64_t> root_of;
  for (const auto& [trace, ext] : extent) {
    Span root;
    root.name = "scan";
    root.start_ns = ext.first;
    root.end_ns = ext.second;
    root.id = static_cast<int64_t>(spans->size());
    root.trace = trace;
    root_of[trace] = root.id;
    spans->push_back(root);
  }
  for (Span& s : *spans) {
    if (s.name != "scan" && s.trace >= 0 && s.parent < 0) s.parent = root_of[s.trace];
  }
}

// ---------------------------------------------------------------------------
// Self-test: the gate must catch one mutated sample, one dropped frame
// and one duplicated frame, and pass the clean delivery.

int SelfTest() {
  const Workload w = MakeWorkload("durable_history", 7);
  Inputs in = MakeInputs(7, kContents);
  const Reference ref = ComputeReference(w, in);
  // Frames as the wire would carry them: the reference rasters again,
  // from a second in-process server, encoded and decoded.
  std::vector<FrameMessage> delivered;
  {
    DsmsServer server;
    for (const auto& d : in.descs) CheckOk(server.RegisterStream(d), "stream");
    for (size_t q = 0; q < w.queries.size(); ++q) {
      CheckOk(server.RegisterQuery(w.queries[q].text,
                                   [&delivered, q](int64_t frame, const Raster& r,
                                                   const std::vector<uint8_t>& png) {
                                     auto bytes = EncodeResultFrame(
                                         static_cast<int64_t>(q), frame, r, png);
                                     delivered.push_back(ValueOrDie(
                                         DecodeFrameMessage(bytes.data(), bytes.size()),
                                         "decode"));
                                   })
                  .status(),
              "query");
    }
    for (const ScanEvents& s : in.scans) {
      for (const Event& e : s.events) {
        CheckOk(server.ingest(in.descs[static_cast<size_t>(e.band)].name())->Consume(e.ev),
                "ingest");
      }
    }
  }
  // Each damaged delivery must fail exactly once, under its own count.
  auto check = [&](const char* label, std::vector<FrameMessage> frames,
                   uint64_t Gate::Tally::*count) {
    Gate gate;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      for (const auto& [content, rf] : ref.refs[q]) {
        gate.Expect(static_cast<int>(q), content, &rf);
      }
    }
    for (const FrameMessage& m : frames) gate.Observe(static_cast<int>(m.query_id), m);
    // The run's verdict on the same tally: only the clean one is correct.
    RunResult res;
    res.tally = gate.Finish();
    const Gate::Tally& t = res.tally;
    const bool correct = OutcomeOf(res).correct;
    const bool pass = count == nullptr ? t.failed() == 0 && correct
                                       : t.failed() == 1 && t.*count == 1 && !correct;
    std::printf("selftest %-10s expected=%" PRIu64 " ok=%" PRIu64 " missing=%" PRIu64
                " duplicate=%" PRIu64 " mismatch=%" PRIu64 " correct=%d -> %s\n",
                label, t.expected, t.ok, t.missing, t.duplicate, t.mismatch,
                correct ? 1 : 0, pass ? "PASS" : "FAIL");
    return pass;
  };
  if (delivered.size() < 3) Die("selftest: too few frames");
  bool ok = check("clean", delivered, nullptr);
  {
    auto mutated = delivered;
    auto& s = mutated[1].samples;
    size_t i = 0;
    while (i < s.size() && std::isnan(s[i])) ++i;
    if (i == s.size()) Die("selftest: frame has no samples");
    s[i] = std::nextafter(s[i], INFINITY);
    ok &= check("mutated", mutated, &Gate::Tally::mismatch);
  }
  {
    auto dropped = delivered;
    dropped.erase(dropped.begin() + 2);
    ok &= check("dropped", dropped, &Gate::Tally::missing);
  }
  {
    auto duplicated = delivered;
    duplicated.push_back(delivered[0]);
    ok &= check("duplicated", duplicated, &Gate::Tally::duplicate);
  }
  std::printf("selftest %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "netbench-out";
  bool selftest = false;
  /// Overrides the workload's DsmsOptions::workers (defect
  /// reproduction only; see README.md).
  int workers = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--workers") {
      a.workers = std::atoi(value().c_str());
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!a.selftest && a.workload.empty()) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const Args args = ParseArgs(argc, argv);
  if (args.selftest) return SelfTest();

  Workload w = MakeWorkload(args.workload, args.seed);
  if (args.workers >= 0) w.workers = static_cast<size_t>(args.workers);
  // The closed and the open phase get about half of the measured time
  // each, in whole cycles of kContents scans. Scans are pre-built for a
  // closed rate of up to twice the seed-1 closed rate (4x the frozen
  // open rate); a faster closed phase ends when they run out.
  RunConfig cfg;
  cfg.closed_budget_s = 0.5 * args.seconds;
  cfg.open_scans = std::max(
      w.min_open_scans,
      kContents * std::max<int64_t>(1, std::llround(0.5 * args.seconds * w.open_rate / kContents)));
  const int64_t num_scans = w.history_scans +
                            static_cast<int64_t>(cfg.closed_budget_s * 4.0 * w.open_rate) +
                            2 * kContents + cfg.open_scans;
  const Inputs in = MakeInputs(args.seed, num_scans);
  const Reference ref = ComputeReference(w, in);
  fs::create_directories(args.out_dir);
  const std::string dir = args.out_dir + "/tmp-" + w.name;

  if (!args.trace) {
    const RunResult res = Run(w, in, ref, dir, cfg);
    const Outcome o = OutcomeOf(res);
    const size_t n_lat = res.latency_ms.size();
    std::vector<Metric> e2e = {
        {"throughput_mpts", res.throughput_mpts, "Mpts/s", 1},
        {"latency_p50_ms", Quantile(res.latency_ms, 0.50), "ms", n_lat},
        {"latency_p99_ms", Quantile(res.latency_ms, 0.99), "ms", n_lat},
        {"delivered_ratio", 1.0 - o.failed_ratio(), "ratio", o.attempted},
        {"setup_s", res.setup_s, "s", static_cast<size_t>(cfg.setup_reps)},
        {"peak_rss_mb", res.peak_rss_mb, "MiB", 1},
    };
    std::vector<Metric> info = {
        {"failed_ratio", o.failed_ratio(), "ratio", o.attempted},
        {"latency_samples_beyond_p99", std::floor(0.01 * static_cast<double>(n_lat)), "count", n_lat},
        {"frames_missing", static_cast<double>(res.tally.missing), "count", res.tally.expected},
        {"frames_duplicate", static_cast<double>(res.tally.duplicate), "count", res.tally.expected},
        {"frames_mismatch", static_cast<double>(res.tally.mismatch), "count", res.tally.expected},
        {"frames_unexpected", static_cast<double>(res.tally.unexpected), "count", res.tally.expected},
        {"publish_errors", static_cast<double>(res.publish_errors), "count", res.publishes},
        {"generator_lag_p99_ms", Quantile(res.generator_lag_ms, 0.99), "ms", res.generator_lag_ms.size()},
        {"closed_phase_s", res.closed_s, "s", static_cast<size_t>(res.closed_scans)},
        {"window_stalls", static_cast<double>(res.window_stalls), "count", res.publishes},
        {"window_stall_s", res.window_stall_s, "s", res.window_stalls},
        {"retransmits", static_cast<double>(res.retransmits), "count", res.publishes},
    };
    if (w.durable) {
      info.push_back({"catchup_s", Median(res.catchup_s), "s", res.catchup_s.size()});
      info.push_back({"catchup_failed", static_cast<double>(res.catchup_failed), "count",
                      res.catchup_attempted});
    }
    PrintTable(w.name + " end-to-end (seed " + std::to_string(args.seed) + ")", e2e);
    PrintTable(w.name + " gate and schedule", info);
    PrintJson(o.correct, o.attempted, o.failed, e2e);
    return 0;
  }

  // Traced run: an untraced closed phase for the tracing-overhead
  // baseline, then the full run with tracing on, then layer replays.
  RunConfig base = cfg;
  base.open_phase = false;
  base.setup_reps = 1;
  base.closed_budget_s = 0.5 * cfg.closed_budget_s;
  const RunResult untraced = Run(w, in, ref, dir, base);
  RunConfig traced_cfg = cfg;
  traced_cfg.traced = true;
  traced_cfg.setup_reps = 1;
  RunResult res = Run(w, in, ref, dir, traced_cfg);
  SpanRecorder replay_spans(true);
  fs::create_directories(dir);
  const Replays rep = RunReplays(w, in, ref, dir, &replay_spans);
  fs::remove_all(dir);

  const auto& m = res.metrics;
  const double points = static_cast<double>(res.points_ingested);
  auto op_ns = [&](std::initializer_list<const char*> labels) {
    double us = 0;
    for (const char* l : labels) {
      us += PromSum(m, "geostreams_operator_latency_us_sum", {{"op", l}});
    }
    return points > 0 ? us * 1e3 / points : 0.0;
  };
  auto stage_p50 = [&](const char* stage) {
    return PromHistQuantile(m, "geostreams_e2e_latency_us", {{"stage", stage}}, 0.5);
  };
  const double frames_read = PromSum(m, "geostreams_store_frames_read_total");
  const double scan_frame_us =
      PromSum(m, "geostreams_store_scan_frame_latency_us_sum") /
      std::max(1.0, PromSum(m, "geostreams_store_scan_frame_latency_us_count"));
  const Outcome o = OutcomeOf(res);

  std::vector<Span> spans = res.spans;
  AttachScanRoots(&spans);
  // Replay spans were numbered from 0 in their own recorder.
  const int64_t offset = static_cast<int64_t>(spans.size());
  for (Span s : replay_spans.Snapshot()) {
    s.id += offset;
    if (s.parent >= 0) s.parent += offset;
    spans.push_back(s);
  }
  res.spans = spans;
  const auto split = BlockingPathSplit(res);
  double bench_path_ms = 0;
  for (const auto& [layer, ms] : split) {
    if (layer == "latency_p50") bench_path_ms = ms;
  }
  const char* stages[] = {"send", "journal", "queue", "operators", "deliver", "write", "total"};
  double server_partition_us = 0;
  for (const char* s : {"send", "journal", "queue", "operators", "deliver", "write"}) {
    server_partition_us += stage_p50(s);
  }

  std::vector<Metric> layers = {
      {"net.producer.publish_s", res.publish_s, "s", res.publishes},
      {"net.producer.window_stall_s", res.window_stall_s, "s", res.window_stalls},
      {"net.producer.window_stalls", static_cast<double>(res.window_stalls), "count", 1},
      {"net.producer.retransmits", static_cast<double>(res.retransmits), "count", 1},
      {"net.producer.send_efficiency",
       static_cast<double>(res.published) /
           std::max(1.0, static_cast<double>(res.published + res.retransmits)),
       "ratio", res.published},
      {"net.wire.ingest_encode_ns_per_point", rep.encode_ns_per_point, "ns/point", 1},
      {"net.wire.ingest_decode_ns_per_point", rep.decode_ns_per_point, "ns/point", 1},
      {"net.delivery.bytes_per_frame",
       static_cast<double>(res.bytes_received) /
           std::max(1.0, static_cast<double>(res.frames_received)),
       "bytes", res.frames_received},
      {"net.delivery.useful_cell_ratio",
       static_cast<double>(res.useful_cells) /
           std::max(1.0, static_cast<double>(res.shipped_cells)),
       "ratio", res.frames_received},
      {"net.client.read_s", res.read_s, "s", res.frames_received},
      {"net.session.frames_shed", PromSum(m, "geostreams_client_frames_shed_total"), "count", 1},
      {"server.ingest_busy_s", res.ingest_busy_s, "s", 1},
      {"server.ingest_busy_share", res.ingest_busy_s / std::max(res.phases_s, 1e-9), "ratio", 1},
      {"server.engine_alone_mpts",
       static_cast<double>(ref.engine_points) / ref.engine_seconds / 1e6, "Mpts/s", 1},
      {"query.register_ms_per_query", res.register_ms_per_query, "ms", w.queries.size()},
      {"query.plan_us_per_query", rep.plan_us_per_query, "us", w.queries.size()},
      {"mqo.route_ns_per_point", rep.route_ns_per_point, "ns/point", 1},
      {"mqo.fanout_factor", rep.fanout_factor, "ratio", 1},
      {"stream.queue_wait_us_p50",
       PromHistQuantile(m, "geostreams_scheduler_queue_wait_us", {}, 0.5), "us", 1},
      {"stream.queue_wait_us_p99",
       PromHistQuantile(m, "geostreams_scheduler_queue_wait_us", {}, 0.99), "us", 1},
      {"stream.shed_batches", PromSum(m, "geostreams_scheduler_shed_total"), "count", 1},
      {"ops.restriction.ns_per_point", op_ns({"region", "time", "vrange"}), "ns/point", 1},
      {"ops.compose.ns_per_point", op_ns({"ndvi", "compose", "stack"}), "ns/point", 1},
      {"ops.reproject.ns_per_point", op_ns({"reproject"}), "ns/point", 1},
      {"ops.stretch.ns_per_point", op_ns({"stretch"}), "ns/point", 1},
      {"ops.value_transform.ns_per_point", op_ns({"vmap"}), "ns/point", 1},
      {"ops.delivery.ns_per_point", op_ns({"delivery"}), "ns/point", 1},
      {"raster.assemble_ns_per_cell", rep.assemble_ns_per_cell, "ns/cell", 1},
      {"raster.png_ms_per_frame", rep.png_ms_per_frame, "ms", ref.sample_rasters.size()},
      {"storage.journal_append_us_p50.per_record", rep.journal_append_us_p50.at("per_record"), "us", 128},
      {"storage.journal_append_us_p50.group_commit", rep.journal_append_us_p50.at("group_commit"), "us", 128},
      {"storage.journal_append_us_p50.off", rep.journal_append_us_p50.at("off"), "us", 128},
      {"storage.fsync_us_p50",
       PromHistQuantile(m, "geostreams_journal_fsync_latency_us", {}, 0.5), "us", 1},
      {"storage.journal_bytes_per_point",
       PromSum(m, "geostreams_journal_append_bytes_total") / std::max(points, 1.0), "bytes", 1},
      {"store.put_frame_ms",
       PromHistQuantile(m, "geostreams_store_put_latency_us", {}, 0.5) * 1e-3, "ms", 1},
      {"store.scan_mpts",
       scan_frame_us > 0 && res.catchup_frames_ok > 0
           ? static_cast<double>(res.catchup_useful_cells) /
                 static_cast<double>(res.catchup_frames_ok) / scan_frame_us
           : 0.0,
       "Mpts/s", static_cast<size_t>(frames_read)},
      {"store.tiles_read_per_frame",
       PromSum(m, "geostreams_store_tiles_read_total") / std::max(frames_read, 1.0), "count", 1},
      {"store.frames_pruned", PromSum(m, "geostreams_store_frames_pruned_total"), "count", 1},
      {"store.segments_rewritten", PromSum(m, "geostreams_store_segments_rewritten_total"), "count", 1},
      {"store.tile_read_errors", PromSum(m, "geostreams_store_tile_read_errors_total"), "count", 1},
      {"store.catchup_s", Median(res.catchup_s), "s", res.catchup_s.size()},
  };
  for (const char* s : stages) {
    layers.push_back({std::string("obs.stage.") + s + "_p50_us", stage_p50(s), "us", 1});
  }
  layers.push_back({"obs.stage_agreement",
                    bench_path_ms > 0 ? server_partition_us * 1e-3 / bench_path_ms : 0.0,
                    "ratio", 1});
  layers.push_back({"obs.tracing_overhead",
                    res.throughput_mpts / std::max(untraced.throughput_mpts, 1e-12), "ratio", 1});
  layers.push_back({"bench.generator_lag_p99_ms", Quantile(res.generator_lag_ms, 0.99), "ms",
                    res.generator_lag_ms.size()});
  layers.push_back({"bench.failed_ratio", o.failed_ratio(), "ratio", o.attempted});

  // Layer accounting: the benchmark's blocking-path split beside the
  // server's own stage medians.
  const std::string tag = w.name + "-seed" + std::to_string(args.seed);
  std::ostringstream table;
  table << "layer accounting, " << w.name << " (traced open phase, medians over "
        << res.latency_ms.size() << " frames)\n";
  table << StringPrintf("  %-28s %10s %8s\n", "blocking-path layer", "self ms", "share");
  for (const auto& [layer, ms] : split) {
    table << StringPrintf("  %-28s %10.3f %7.1f%%\n", layer.c_str(), ms,
                          bench_path_ms > 0 ? 100.0 * ms / bench_path_ms : 0.0);
  }
  table << StringPrintf("  %-28s %10s\n", "server stage (histogram)", "p50 ms");
  for (const char* s : stages) {
    table << StringPrintf("  %-28s %10.3f\n", s, stage_p50(s) * 1e-3);
  }
  table << StringPrintf("  stage partition (send..write) / bench path = %.3f\n",
                        bench_path_ms > 0 ? server_partition_us * 1e-3 / bench_path_ms : 0.0);
  std::printf("%s", table.str().c_str());
  std::ofstream(args.out_dir + "/layers-" + tag + ".txt") << table.str();
  WriteSpans(args.out_dir + "/spans-" + tag + ".jsonl", spans);
  PrintTable(w.name + " per-layer (traced, seed " + std::to_string(args.seed) + ")", layers);
  PrintJson(o.correct, o.attempted, o.failed, layers);
  return 0;
}

}  // namespace
}  // namespace netbench

int main(int argc, char** argv) { return netbench::Main(argc, argv); }
