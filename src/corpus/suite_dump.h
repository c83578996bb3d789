// Serializes the synthetic benchmark suite to a directory of textual-IR
// files — the reference corpus for the ingestion frontend (ingest.h) and
// the irgnn_ingest CLI's `dump` subcommand.
//
// Two modes:
//
//   num_sequences == 0: one file per region, holding the raw region module
//   (host + outlined kernel) from workloads::build_region_module. This is
//   the "external code drop" shape: multi-function modules whose OpenMP
//   regions ingest must find and extract itself.
//
//   num_sequences == N > 0: one file per (region, sequence) holding the
//   *extracted* post-pass region module — exactly the module
//   core::build_dataset_shared builds graphs[r][s] from (clone →
//   PassManager → extract_region). Ingesting such a dump therefore
//   reproduces build_dataset_shared({N, seed}) bit-for-bit, which CI gates.
//
// Filenames are deterministic ("r012_s03_<slug>.ir"), so a dump is
// byte-stable and its ingest order equals suite order.
#pragma once

#include <cstdint>
#include <string>

#include "support/status.h"

namespace irgnn::corpus {

struct SuiteDumpOptions {
  /// 0: raw region modules; N: extracted post-pass variants (see above).
  std::size_t num_sequences = 0;
  /// Flag-sequence sampling seed (must match the DatasetOptions seed the
  /// dump is meant to reproduce).
  std::uint64_t seed = 0xDA7A;
};

/// Writes the suite corpus under `dir` (created if absent). Returns the
/// first file-system or pipeline failure; on success `*files_written` (if
/// non-null) is the file count.
support::Status dump_suite(const std::string& dir,
                           const SuiteDumpOptions& options,
                           std::size_t* files_written = nullptr);

}  // namespace irgnn::corpus
