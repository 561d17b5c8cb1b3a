#include "common/file.hpp"

#include <unistd.h>

#include <cstdio>

namespace s4e {

Status write_file_atomic(const std::string& path, std::string_view bytes) {
  // Per-process temp name, so concurrent writers of one path (ctest -j,
  // fleet workers) never share a staging file; the rename serializes them.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    return Error(ErrorCode::kIoError,
                 "cannot open '" + temp + "' for writing");
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  if (std::fclose(file) != 0 || !wrote) {
    std::remove(temp.c_str());
    return Error(ErrorCode::kIoError, "short write to '" + temp + "'");
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Error(ErrorCode::kIoError,
                 "cannot rename '" + temp + "' to '" + path + "'");
  }
  return Status();
}

}  // namespace s4e
