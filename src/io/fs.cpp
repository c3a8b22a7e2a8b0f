#include "io/fs.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

namespace explframe::io {

namespace {

namespace stdfs = std::filesystem;

/// Spell the errnos our failure model names; anything else prints its
/// number. (strerror is not thread-safe and the workers are concurrent,
/// so we do not use it.)
std::string errno_name(int err) {
  switch (err) {
    case EINTR: return "EINTR";
    case EAGAIN: return "EAGAIN";
    case EIO: return "EIO";
    case EBUSY: return "EBUSY";
    case ENOSPC: return "ENOSPC";
    case EDQUOT: return "EDQUOT";
    case EROFS: return "EROFS";
    case EACCES: return "EACCES";
    case EPERM: return "EPERM";
    case ENOENT: return "ENOENT";
    case EISDIR: return "EISDIR";
    case ENOTDIR: return "ENOTDIR";
    case EMFILE: return "EMFILE";
    case ENFILE: return "ENFILE";
    default: return "errno=" + std::to_string(err);
  }
}

/// stdio handle behind the File interface. Durability comes from sync()
/// (fflush + fsync); close() flushes but does not fsync.
class RealFile final : public File {
 public:
  RealFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~RealFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status write(const std::string& bytes) override {
    if (file_ == nullptr)
      return Status::permanent_error("write on closed file '" + path_ + "'");
    if (bytes.empty()) return Status::ok_status();
    errno = 0;
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "short write to '" + path_ + "'");
    return Status::ok_status();
  }

  Status sync() override {
    if (file_ == nullptr)
      return Status::permanent_error("sync on closed file '" + path_ + "'");
    errno = 0;
    if (std::fflush(file_) != 0)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot flush '" + path_ + "'");
    errno = 0;
    if (::fsync(::fileno(file_)) != 0)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot fsync '" + path_ + "'");
    return Status::ok_status();
  }

  Status close() override {
    if (file_ == nullptr) return Status::ok_status();
    std::FILE* file = file_;
    file_ = nullptr;
    errno = 0;
    if (std::fclose(file) != 0)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot close '" + path_ + "'");
    return Status::ok_status();
  }

 private:
  std::FILE* file_;
  const std::string path_;
};

/// The production passthrough (see io::real()).
class RealFs final : public FileSystem {
 public:
  Status open(const std::string& path, OpenMode mode,
              std::unique_ptr<File>* out) override {
    errno = 0;
    std::FILE* file =
        std::fopen(path.c_str(), mode == OpenMode::kAppend ? "ab" : "wb");
    if (file == nullptr)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot open '" + path + "'");
    *out = std::make_unique<RealFile>(file, path);
    return Status::ok_status();
  }

  Status read_file(const std::string& path, std::string* out) override {
    errno = 0;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot open '" + path + "'");
    std::string content;
    char buffer[1 << 16];
    while (true) {
      errno = 0;
      const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
      content.append(buffer, got);
      if (got < sizeof(buffer)) {
        if (std::ferror(file) != 0) {
          const Status status = Status::from_errno(
              errno != 0 ? errno : EIO, "cannot read '" + path + "'");
          std::fclose(file);
          return status;
        }
        break;
      }
    }
    std::fclose(file);
    *out = std::move(content);
    return Status::ok_status();
  }

  Status rename(const std::string& from, const std::string& to) override {
    errno = 0;
    if (std::rename(from.c_str(), to.c_str()) != 0)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot rename '" + from + "' to '" + to +
                                    "'");
    return Status::ok_status();
  }

  Status remove(const std::string& path) override {
    errno = 0;
    if (std::remove(path.c_str()) != 0 && errno != ENOENT)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot remove '" + path + "'");
    return Status::ok_status();
  }

  Status list(const std::string& dir,
              std::vector<std::string>* names) override {
    std::error_code ec;
    std::vector<std::string> found;
    for (stdfs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->is_regular_file(ec))
        found.push_back(it->path().filename().string());
    }
    if (ec)
      return Status::permanent_error("cannot list '" + dir +
                                     "': " + ec.message());
    std::sort(found.begin(), found.end());
    *names = std::move(found);
    return Status::ok_status();
  }

  Status truncate(const std::string& path, std::uint64_t size) override {
    errno = 0;
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
      return Status::from_errno(errno != 0 ? errno : EIO,
                                "cannot truncate '" + path + "'");
    return Status::ok_status();
  }

  Status create_directories(const std::string& path) override {
    std::error_code ec;
    stdfs::create_directories(path, ec);
    if (ec)
      return Status::permanent_error("cannot create directory '" + path +
                                     "': " + ec.message());
    return Status::ok_status();
  }

  bool exists(const std::string& path) const override {
    std::error_code ec;
    return stdfs::exists(path, ec);
  }
};

/// Monotonic suffix making concurrent durable_write tmp names unique
/// within the process.
std::atomic<std::uint64_t> g_tmp_counter{0};

}  // namespace

Status Status::transient_error(std::string message) {
  return Status(ErrorKind::kTransient, std::move(message));
}

Status Status::permanent_error(std::string message) {
  return Status(ErrorKind::kPermanent, std::move(message));
}

Status Status::not_found(std::string message) {
  return Status(ErrorKind::kNotFound, std::move(message));
}

Status Status::from_errno(int err, const std::string& context) {
  const std::string message = context + " (" + errno_name(err) + ")";
  switch (err) {
    case EINTR:
    case EAGAIN:
    case EIO:
    case EBUSY:
      return transient_error(message);
    case ENOENT:
      return not_found(message);
    default:
      return permanent_error(message);
  }
}

void FileSystem::crash_point(const std::string&) {}

FileSystem& real() {
  static RealFs fs;
  return fs;
}

const std::vector<std::string>& crash_point_names() {
  // Keep this list in pipeline order and in sync with every
  // fs.crash_point(...) call site; the torture suites arm each name in
  // turn and assert recovery, and they fail if a name is never visited.
  static const std::vector<std::string> names = {
      "durable-write.tmp-synced",     // tmp synced, rename not yet done
      "service.submit.spooled",       // .req durable, queue not yet told
      "service.finish.csv-written",   // csv report durable, md not yet
      "service.finish.committed",     // md (the commit record) durable,
                                      // .req not yet retired
      "service.fail.recorded",        // failed/<id>.err durable, .req not
                                      // yet retired
      "sweep.checkpoint.appended",    // record line durable, in-memory
                                      // slot not yet updated
  };
  return names;
}

Status with_retry(std::uint32_t attempts, const std::function<Status()>& op) {
  if (attempts == 0) attempts = 1;
  Status status;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    status = op();
    if (!status.transient()) return status;
  }
  return status;
}

Status write_file(FileSystem& fs, const std::string& path,
                  const std::string& content) {
  std::unique_ptr<File> file;
  Status status = fs.open(path, OpenMode::kTruncate, &file);
  if (!status.ok()) return status;
  status = file->write(content);
  const Status closed = file->close();
  return status.ok() ? closed : status;
}

Status durable_write(FileSystem& fs, const std::string& path,
                     const std::string& content, std::uint32_t attempts) {
  return with_retry(attempts, [&fs, &path, &content] {
    const std::string tmp =
        path + ".tmp" + std::to_string(g_tmp_counter.fetch_add(1));
    std::unique_ptr<File> file;
    Status status = fs.open(tmp, OpenMode::kTruncate, &file);
    if (!status.ok()) return status;
    status = file->write(content);
    if (status.ok()) status = file->sync();
    const Status closed = file->close();
    if (status.ok()) status = closed;
    if (status.ok()) {
      fs.crash_point("durable-write.tmp-synced");
      status = fs.rename(tmp, path);
    }
    // Never strand the tmp file: whatever failed above, take the partial
    // artifact with us (best effort — after a simulated crash even the
    // remove fails, which is exactly what a real crash leaves behind).
    if (!status.ok()) (void)fs.remove(tmp);
    return status;
  });
}

}  // namespace explframe::io
