// Ingest phase: the corpus frontend (ir parser/verifier, corpus extract,
// dedup, .irds cache I/O) over the reference textual-IR corpus.
//
// Set-up writes the reference corpus, the suite dump with 64 flag sequences
// under the dataset default seed (3,584 files, ~88% structural duplicates;
// fixed, so every run ingests the same bytes) three times into
// the same directory (median = set-up time), then runs one untimed warm-up
// ingest so the page cache and the buffer arena are warm. Every timed
// repetition is then a cold ingest_directory in the library's sense (no
// .irds cache is consulted), a cache write, and warm DatasetCacheReader
// opens + materialise-every-graph of the cache just written.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "corpus/dataset_cache.h"
#include "corpus/ingest.h"
#include "corpus/suite_dump.h"
#include "graph/fingerprint.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "support/rng.h"

namespace perfbench {

using namespace irgnn;

namespace {

/// ir.parse_us / ir.verify_us per file over a seeded sample of the corpus.
void parse_probe(const std::vector<std::string>& files, std::uint64_t seed,
                 std::size_t samples, Dist& parse_us, Dist& verify_us,
                 Result& result) {
  for (std::size_t i = 0; i < samples; ++i) {
    const std::string& path =
        files[irgnn::hash_combine64(seed, i) % files.size()];
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    const std::string source = text.str();
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<ir::Module> module;
    {
      ScopedSpan span("ir.parse_module");
      module = ir::parse_module(source);
    }
    parse_us.add(seconds_since(t0) * 1e6);
    result.check(module != nullptr, "corpus file failed to parse: " + path);
    if (!module) continue;
    t0 = Clock::now();
    bool ok = false;
    {
      ScopedSpan span("ir.verify");
      ok = ir::verify(*module);
    }
    verify_us.add(seconds_since(t0) * 1e6);
    result.check(ok, "corpus file failed to verify: " + path);
  }
}

}  // namespace

int run_ingest(const PhaseArgs& args, Result& result) {
  namespace fs = std::filesystem;
  const std::string dir = args.work_dir + "/corpus";
  const std::string cache = args.work_dir + "/corpus.irds";
  corpus::SuiteDumpOptions dump;
  dump.num_sequences = 64;
  dump.seed = 0xDA7A;  // the reference corpus: same files on every run

  // --- Set-up: write the corpus three times, then one warm-up ingest.
  Dist setup;
  std::size_t files = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    const Clock::time_point t0 = Clock::now();
    const support::Status st = corpus::dump_suite(dir, dump, &files);
    setup.add(seconds_since(t0));
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: dump_suite failed: %s\n", st.message());
      return 3;
    }
  }
  const corpus::IngestOptions options;
  Clock::time_point t0 = Clock::now();
  corpus::IngestResult reference;
  support::Status st = corpus::ingest_directory(dir, options, &reference);
  const double warmup_s = seconds_since(t0);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: ingest failed: %s\n", st.message());
    return 3;
  }
  result.metric("setup_s", setup.median() + warmup_s, "s");
  result.note("ingest_corpus_files", std::to_string(files));

  // --- Timed: each repetition is a cold ingest, a cache write, then
  // kLoadsPerRep back-to-back warm loads (one load is under a millisecond);
  // warm_load_s is the median load. Interleaving spreads every metric's
  // samples over the whole phase, so a few seconds of host slowdown move
  // all of them a little rather than one of them a lot.
  constexpr int reps = 12;
  constexpr int kLoadsPerRep = 20;
  constexpr int loads = reps * kLoadsPerRep;
  corpus::CacheLimits limits;
  limits.max_feature = static_cast<std::int32_t>(graph::vocabulary_size()) - 1;
  Dist ingest_s, write_s, warm_s, open_s, materialize_us;
  std::vector<graph::ProgramGraph> graphs;
  for (int rep = 0; rep < reps; ++rep) {
    corpus::IngestResult run;
    t0 = Clock::now();
    {
      ScopedSpan span("corpus.ingest_directory");
      st = corpus::ingest_directory(dir, options, &run);
    }
    ingest_s.add(seconds_since(t0));
    result.check(st.ok(), "ingest_directory failed");
    result.attempted(run.stats.files_scanned);
    result.failed(run.stats.files_failed);
    result.check(run.graphs.size() == reference.graphs.size() &&
                     run.fingerprints == reference.fingerprints &&
                     run.corpus_hash == reference.corpus_hash,
                 "repeated ingest of one corpus is not deterministic");
    t0 = Clock::now();
    {
      ScopedSpan span("corpus.write_dataset_cache");
      st = corpus::write_dataset_cache(cache, run.graphs, run.fingerprints,
                                       run.corpus_hash, run.options_hash);
    }
    write_s.add(seconds_since(t0));
    result.check(st.ok(), "write_dataset_cache failed");

    for (int load = 0; load < kLoadsPerRep; ++load) {
      const std::uint64_t built_before = corpus::graphs_built();
      t0 = Clock::now();
      corpus::DatasetCacheReader reader;
      {
        ScopedSpan span("corpus.cache_open");
        st = reader.open(cache, limits);
      }
      open_s.add(seconds_since(t0));
      result.check(st.ok(), "warm .irds open failed");
      if (!st.ok()) break;
      const Clock::time_point m0 = Clock::now();
      graphs.resize(static_cast<std::size_t>(reader.num_graphs()));
      {
        ScopedSpan span("corpus.materialize");
        for (std::uint64_t i = 0; i < reader.num_graphs(); ++i)
          reader.materialize(i, &graphs[i]);
      }
      materialize_us.add(graphs.empty() ? 0 : seconds_since(m0) * 1e6 / graphs.size());
      warm_s.add(seconds_since(t0));
      result.check(corpus::graphs_built() == built_before,
                   "warm .irds load rebuilt graphs");
    }
  }
  // The warm graphs must fingerprint-equal the cold ingest.
  bool same = graphs.size() == reference.graphs.size();
  for (std::size_t i = 0; same && i < graphs.size(); ++i)
    same = graph::fingerprint(graphs[i]) == reference.fingerprints[i];
  result.check(same, "warm .irds graphs differ from the cold ingest");

  const double ingest_median = ingest_s.median();
  result.metric("ingest_files_per_s",
                static_cast<double>(reference.stats.files_scanned) / ingest_median,
                "files/s");
  result.metric("warm_load_s", warm_s.median(), "s");
  result.timing("corpus.ingest_s", ingest_s, 50);
  result.timing("warm_load_s", warm_s, 50);
  result.note("ingest_stats",
              "{\"files\":" + std::to_string(reference.stats.files_scanned) +
                  ",\"regions\":" + std::to_string(reference.stats.regions_total) +
                  ",\"unique_graphs\":" + std::to_string(reference.graphs.size()) +
                  ",\"failed_files\":" + std::to_string(reference.stats.files_failed) +
                  ",\"ingest_reps\":" + std::to_string(reps) +
                  ",\"warm_loads\":" + std::to_string(loads) + "}");

  if (args.trace) {
    std::vector<std::string> paths;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file()) paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    Dist parse_us, verify_us;
    parse_probe(paths, args.seed, 400, parse_us, verify_us, result);
    result.metric("ir.parse_us", parse_us.median(), "us");
    result.metric("ir.verify_us", verify_us.median(), "us");
    result.metric("corpus.ingest_s", ingest_median, "s");
    result.metric("corpus.dedup_share",
                  static_cast<double>(reference.graphs.size()) /
                      static_cast<double>(reference.stats.regions_total),
                  "ratio");
    result.metric("corpus.cache_write_s", write_s.median(), "s");
    result.metric("corpus.cache_open_s", open_s.median(), "s");
    result.metric("corpus.materialize_us", materialize_us.median(), "us");
    result.metric("corpus.files_failed",
                  static_cast<double>(reference.stats.files_failed), "count");
    finish_trace(args, "ingest", result, {});
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove(cache, ec);
  return 0;
}

}  // namespace perfbench
