#include "corpus/suite_dump.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "graph/region_extractor.h"
#include "ir/printer.h"
#include "passes/flag_sequence.h"
#include "passes/pass.h"
#include "workloads/suite.h"

namespace irgnn::corpus {

namespace {

namespace fs = std::filesystem;

/// "bt xsolve" -> "bt_xsolve", "b+tree find" -> "b_tree_find": filenames
/// stay portable and sort the same everywhere.
std::string slug(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

support::Status write_file(const fs::path& path, const std::string& text) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (!fp) return support::Status::Internal("dump file open failed");
  const bool ok =
      text.empty() || std::fwrite(text.data(), 1, text.size(), fp) ==
                          text.size();
  if (std::fclose(fp) != 0 || !ok)
    return support::Status::Internal("dump file write failed");
  return support::Status::Ok();
}

std::string file_name(std::size_t r, const std::string& region) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r%03zu_", r);
  return std::string(buf) + slug(region) + ".ir";
}

std::string file_name(std::size_t r, std::size_t s,
                      const std::string& region) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r%03zu_s%02zu_", r, s);
  return std::string(buf) + slug(region) + ".ir";
}

}  // namespace

support::Status dump_suite(const std::string& dir,
                           const SuiteDumpOptions& options,
                           std::size_t* files_written) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir))
    return support::Status::InvalidArgument("dump directory not creatable");

  const auto& suite = workloads::benchmark_suite();
  std::size_t written = 0;

  if (options.num_sequences == 0) {
    for (std::size_t r = 0; r < suite.size(); ++r) {
      const auto module = workloads::build_region_module(suite[r]);
      support::Status status = write_file(
          fs::path(dir) / file_name(r, suite[r].name),
          ir::print_module(*module));
      if (!status.ok()) return status;
      ++written;
    }
    if (files_written) *files_written = written;
    return support::Status::Ok();
  }

  // Mirror core::build_dataset_shared exactly: same sequence sampling,
  // same clone → PassManager → extract_region per variant. The dumped
  // module is the one it feeds build_graph, so the two paths must agree.
  const std::vector<passes::FlagSequence> sequences =
      passes::sample_flag_sequences(options.num_sequences, options.seed);
  passes::register_builtin_passes();

  for (std::size_t r = 0; r < suite.size(); ++r) {
    const auto base_module = workloads::build_region_module(suite[r]);
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      auto variant = base_module->clone();
      passes::PassManager pm(sequences[s].passes);
      pm.run(*variant);
      auto region_module = graph::extract_region(
          *variant, workloads::outlined_name(suite[r].kernel.name));
      if (!region_module)
        return support::Status::Internal("suite region failed to extract");
      support::Status status = write_file(
          fs::path(dir) / file_name(r, s, suite[r].name),
          ir::print_module(*region_module));
      if (!status.ok()) return status;
      ++written;
    }
  }
  if (files_written) *files_written = written;
  return support::Status::Ok();
}

}  // namespace irgnn::corpus
