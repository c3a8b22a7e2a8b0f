#include "counting_fs.hpp"

#include "common.hpp"

namespace perfbench {

namespace io = explframe::io;

namespace {

/// Times `call` and books it on `path`.
template <class Call>
auto timed(const CountingFs& fs, const std::string& path, bool sync,
           std::uint64_t bytes, Call&& call) {
  const auto t0 = Clock::now();
  auto result = call();
  fs.record(path, ms_between(t0, Clock::now()), sync, bytes);
  return result;
}

class CountingFile : public io::File {
 public:
  CountingFile(const CountingFs& fs, std::string path,
               std::unique_ptr<io::File> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  io::Status write(const std::string& bytes) override {
    return timed(fs_, path_, false, bytes.size(),
                 [&] { return base_->write(bytes); });
  }
  io::Status sync() override {
    return timed(fs_, path_, true, 0, [&] { return base_->sync(); });
  }
  io::Status close() override {
    return timed(fs_, path_, false, 0, [&] { return base_->close(); });
  }

 private:
  const CountingFs& fs_;
  std::string path_;
  std::unique_ptr<io::File> base_;
};

void add(CountingFs::Totals& into, const CountingFs::Totals& t) {
  into.ops += t.ops;
  into.syncs += t.syncs;
  into.write_bytes += t.write_bytes;
  into.sync_ms += t.sync_ms;
}

}  // namespace

void CountingFs::record(const std::string& path, double ms, bool sync,
                        std::uint64_t bytes) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Totals& t = by_path_[path];
  ++t.ops;
  t.write_bytes += bytes;
  if (sync) {
    ++t.syncs;
    t.sync_ms += ms;
  }
}

io::Status CountingFs::open(const std::string& path, io::OpenMode mode,
                            std::unique_ptr<io::File>* out) {
  std::unique_ptr<io::File> file;
  const io::Status status =
      timed(*this, path, false, 0, [&] { return base_.open(path, mode, &file); });
  if (status.ok())
    *out = std::make_unique<CountingFile>(*this, path, std::move(file));
  return status;
}

io::Status CountingFs::read_file(const std::string& path, std::string* out) {
  return timed(*this, path, false, 0, [&] { return base_.read_file(path, out); });
}

io::Status CountingFs::rename(const std::string& from, const std::string& to) {
  return timed(*this, to, false, 0, [&] { return base_.rename(from, to); });
}

io::Status CountingFs::remove(const std::string& path) {
  return timed(*this, path, false, 0, [&] { return base_.remove(path); });
}

io::Status CountingFs::list(const std::string& dir,
                            std::vector<std::string>* names) {
  return timed(*this, dir, false, 0, [&] { return base_.list(dir, names); });
}

io::Status CountingFs::truncate(const std::string& path, std::uint64_t size) {
  return timed(*this, path, false, 0,
               [&] { return base_.truncate(path, size); });
}

io::Status CountingFs::create_directories(const std::string& path) {
  return timed(*this, path, false, 0,
               [&] { return base_.create_directories(path); });
}

bool CountingFs::exists(const std::string& path) const {
  return timed(*this, path, false, 0, [&] { return base_.exists(path); });
}

CountingFs::Totals CountingFs::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Totals sum;
  for (const auto& [path, t] : by_path_) add(sum, t);
  return sum;
}

CountingFs::Totals CountingFs::totals_for(
    const std::vector<std::string>& keys) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Totals sum;
  for (const auto& [path, t] : by_path_)
    for (const std::string& key : keys)
      if (path.find(key) != std::string::npos) {
        add(sum, t);
        break;
      }
  return sum;
}

}  // namespace perfbench
