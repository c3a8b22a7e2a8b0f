// A pass-through io::FileSystem that times and counts every operation,
// sync and written byte, attributed to the path it touched. Injected
// through ServiceOptions::fs, it measures the io layer from outside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/fs.hpp"

namespace perfbench {

class CountingFs : public explframe::io::FileSystem {
 public:
  struct Totals {
    std::uint64_t ops = 0;  ///< Every call, existence probes included.
    std::uint64_t syncs = 0;
    std::uint64_t write_bytes = 0;
    double sync_ms = 0.0;
  };

  explicit CountingFs(explframe::io::FileSystem& base) : base_(base) {}

  explframe::io::Status open(const std::string& path,
                             explframe::io::OpenMode mode,
                             std::unique_ptr<explframe::io::File>* out) override;
  explframe::io::Status read_file(const std::string& path,
                                  std::string* out) override;
  explframe::io::Status rename(const std::string& from,
                               const std::string& to) override;
  explframe::io::Status remove(const std::string& path) override;
  explframe::io::Status list(const std::string& dir,
                             std::vector<std::string>* names) override;
  explframe::io::Status truncate(const std::string& path,
                                 std::uint64_t size) override;
  explframe::io::Status create_directories(const std::string& path) override;
  bool exists(const std::string& path) const override;
  void crash_point(const std::string& name) override { base_.crash_point(name); }

  /// Everything so far.
  Totals totals() const;
  /// Operations on paths containing any of `keys` (e.g. job ids).
  Totals totals_for(const std::vector<std::string>& keys) const;

  /// Books one operation on `path`; called by the file wrapper too.
  void record(const std::string& path, double ms, bool sync,
              std::uint64_t bytes) const;

 private:
  explframe::io::FileSystem& base_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, Totals> by_path_;  ///< Guarded by mutex_.
};

}  // namespace perfbench
