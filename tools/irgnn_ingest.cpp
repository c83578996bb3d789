// Corpus ingestion CLI. Four subcommands (first positional word):
//
//   irgnn_ingest dump    --dir corpus/ [--sequences N] [--seed S]
//       Serialize the synthetic benchmark suite to textual-IR files.
//       --sequences 0 dumps raw region modules; N > 0 dumps the extracted
//       post-pass variants core::build_dataset_shared builds from.
//
//   irgnn_ingest ingest  --dir corpus/ --out data.irds [--threads T]
//       [--no-dedup] — walk, parse, extract, build, dedup, write the cache.
//       Exits nonzero if any file failed (malformed files are reported per
//       file, never crash the run).
//
//   irgnn_ingest inspect --cache data.irds
//       Print the header and per-graph index of a cache.
//
//   irgnn_ingest verify  --cache data.irds [--dir corpus/]
//       Full integrity pass: payload hash, fingerprints recomputed from
//       materialized graphs, and (with --dir) the corpus content hash.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "corpus/dataset_cache.h"
#include "corpus/ingest.h"
#include "corpus/suite_dump.h"
#include "graph/fingerprint.h"
#include "support/argparse.h"

namespace {

using namespace irgnn;

int run_dump(ArgParser& parser, int argc, const char* const* argv) {
  parser.add("dir", "corpus", "output directory for the textual-IR files")
      .add("sequences", "0", "0: raw region modules; N: post-pass variants")
      .add("seed", "55930", "flag-sequence seed (decimal; default 0xDA7A)");
  if (!parser.parse(argc, argv)) return 1;

  corpus::SuiteDumpOptions options;
  options.num_sequences = static_cast<std::size_t>(parser.get_int("sequences"));
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  std::size_t files = 0;
  support::Status status =
      corpus::dump_suite(parser.get_string("dir"), options, &files);
  if (!status.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", status.message());
    return 1;
  }
  std::printf("dumped %zu files to %s\n", files,
              parser.get_string("dir").c_str());
  return 0;
}

int run_ingest(ArgParser& parser, int argc, const char* const* argv) {
  parser.add("dir", "corpus", "directory of textual-IR files to ingest")
      .add("out", "dataset.irds", "output cache path")
      .add("threads", "0", "pipeline threads (0: all pool workers)")
      .add("no-dedup", "false", "keep structurally identical regions")
      .add("strict", "false", "exit nonzero if any input file failed");
  if (!parser.parse(argc, argv)) return 1;

  corpus::IngestOptions options;
  options.num_threads = static_cast<int>(parser.get_int("threads"));
  options.dedup = !parser.get_bool("no-dedup");
  corpus::IngestResult result;
  support::Status status =
      corpus::ingest_directory(parser.get_string("dir"), options, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.message());
    return 1;
  }
  for (const auto& file : result.files)
    if (!file.status.ok())
      std::fprintf(stderr, "  %s: %s (%s)\n", file.path.c_str(),
                   file.status.message(), file.detail.c_str());
  std::printf(
      "scanned %" PRIu64 " files (%" PRIu64 " ok, %" PRIu64
      " failed): %" PRIu64 " regions, %" PRIu64 " unique graphs, %" PRIu64
      " duplicates, %" PRIu64 " nodes, %" PRIu64 " edges\n",
      result.stats.files_scanned, result.stats.files_ok,
      result.stats.files_failed, result.stats.regions_total,
      result.stats.graphs_unique, result.stats.duplicates,
      result.stats.nodes_total, result.stats.edges_total);
  std::printf("corpus_hash=%016" PRIx64 " options_hash=%016" PRIx64 "\n",
              result.corpus_hash, result.options_hash);

  status = corpus::write_dataset_cache(parser.get_string("out"), result.graphs,
                                       result.fingerprints, result.corpus_hash,
                                       result.options_hash);
  if (!status.ok()) {
    std::fprintf(stderr, "cache write failed: %s\n", status.message());
    return 1;
  }
  std::printf("wrote %s\n", parser.get_string("out").c_str());
  if (parser.get_bool("strict") && result.stats.files_failed) return 1;
  return 0;
}

int run_inspect(ArgParser& parser, int argc, const char* const* argv) {
  parser.add("cache", "dataset.irds", "cache file to inspect")
      .add("limit", "16", "max index rows to print (0: all)");
  if (!parser.parse(argc, argv)) return 1;

  corpus::DatasetCacheReader reader;
  support::Status status = reader.open(parser.get_string("cache"));
  if (!status.ok()) {
    std::fprintf(stderr, "open failed: %s\n", status.message());
    return 1;
  }
  std::printf("version=%u graphs=%" PRIu64 " nodes=%" PRIu64 " edges=%" PRIu64
              "\ncorpus_hash=%016" PRIx64 " options_hash=%016" PRIx64 "\n",
              corpus::kCacheVersion, reader.num_graphs(), reader.total_nodes(),
              reader.total_edges(), reader.corpus_hash(),
              reader.options_hash());
  const std::uint64_t limit =
      static_cast<std::uint64_t>(parser.get_int("limit"));
  for (std::uint64_t i = 0; i < reader.num_graphs(); ++i) {
    if (limit && i == limit) {
      std::printf("  ... (%" PRIu64 " more)\n", reader.num_graphs() - i);
      break;
    }
    std::printf("  [%4" PRIu64 "] %016" PRIx64 " nodes=%u edges=%u %.*s\n", i,
                reader.fingerprint(i), reader.graph_nodes(i),
                reader.graph_edges(i),
                static_cast<int>(reader.graph_name(i).size()),
                reader.graph_name(i).data());
  }
  return 0;
}

int run_verify(ArgParser& parser, int argc, const char* const* argv) {
  parser.add("cache", "dataset.irds", "cache file to verify")
      .add("dir", "", "corpus directory to check corpus_hash against");
  if (!parser.parse(argc, argv)) return 1;

  corpus::DatasetCacheReader reader;
  support::Status status = reader.open(parser.get_string("cache"));
  if (!status.ok()) {
    std::fprintf(stderr, "open failed: %s\n", status.message());
    return 1;
  }
  status = reader.verify_payload_hash();
  if (!status.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", status.message());
    return 1;
  }
  graph::ProgramGraph scratch;
  for (std::uint64_t i = 0; i < reader.num_graphs(); ++i) {
    reader.materialize(i, &scratch);
    if (graph::fingerprint(scratch) != reader.fingerprint(i)) {
      std::fprintf(stderr,
                   "verify failed: graph %" PRIu64 " fingerprint mismatch\n",
                   i);
      return 1;
    }
  }
  if (!parser.get_string("dir").empty()) {
    corpus::IngestResult result;
    status = corpus::ingest_directory(parser.get_string("dir"), {}, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "corpus rescan failed: %s\n", status.message());
      return 1;
    }
    if (result.corpus_hash != reader.corpus_hash()) {
      std::fprintf(stderr,
                   "verify failed: corpus changed (cache %016" PRIx64
                   ", dir %016" PRIx64 ")\n",
                   reader.corpus_hash(), result.corpus_hash);
      return 1;
    }
  }
  std::printf("ok: %" PRIu64 " graphs, payload hash and fingerprints match\n",
              reader.num_graphs());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sub = argc > 1 ? argv[1] : "";
  // The subcommand word is consumed here; ArgParser sees argv shifted by one.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const int rest_argc = static_cast<int>(rest.size());

  if (sub == "dump") {
    ArgParser parser("irgnn_ingest dump", "serialize the suite to textual IR");
    return run_dump(parser, rest_argc, rest.data());
  }
  if (sub == "ingest") {
    ArgParser parser("irgnn_ingest ingest",
                     "ingest a textual-IR corpus into a .irds cache");
    return run_ingest(parser, rest_argc, rest.data());
  }
  if (sub == "inspect") {
    ArgParser parser("irgnn_ingest inspect", "print a cache's header/index");
    return run_inspect(parser, rest_argc, rest.data());
  }
  if (sub == "verify") {
    ArgParser parser("irgnn_ingest verify", "full cache integrity pass");
    return run_verify(parser, rest_argc, rest.data());
  }
  std::fprintf(stderr,
               "usage: irgnn_ingest {dump|ingest|inspect|verify} [flags]\n"
               "  run a subcommand with --help for its flags\n");
  return sub == "--help" || sub == "help" ? 0 : 1;
}
