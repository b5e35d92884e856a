#include "util/fs.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "faultinject/fault_plan.h"

namespace ccfuzz {
namespace {

/// Maps an errno from a write path onto the repo's typed errors.
Error write_errno_error(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  return err == ENOSPC ? Error::no_space(msg) : Error::io(msg);
}

}  // namespace

AtomicFile::AtomicFile(std::string path, bool sync)
    : path_(std::move(path)), tmp_(path_ + ".tmp"), sync_(sync) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    fail(write_errno_error("cannot open " + tmp_, errno));
  } else if (faultinject::should_fire(faultinject::FaultSite::kNoSpace)) {
    fail(Error::no_space("fault injection: ENOSPC writing " + tmp_));
  } else {
    short_write_ =
        faultinject::should_fire(faultinject::FaultSite::kShortWrite);
  }
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) ::close(fd_);
}

void AtomicFile::fail(Error e) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (error_.ok()) error_ = std::move(e);
}

void AtomicFile::append(std::string_view bytes) {
  if (!error_.ok()) return;
  if (short_write_) {
    // A short write persists a prefix, then fails — the torn tmp stays on
    // disk like a crash artifact; the target must remain untouched.
    ssize_t ignored = ::write(fd_, bytes.data(), bytes.size() / 2);
    (void)ignored;
    fail(Error::io("fault injection: short write on " + tmp_));
    return;
  }
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(write_errno_error("write failed for " + tmp_, errno));
      return;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

Error AtomicFile::publish() { return finish(false); }

Error AtomicFile::publish_rotating() { return finish(true); }

Error AtomicFile::finish(bool rotate) {
  if (short_write_) append({});  // an empty file's short write
  if (error_.ok() && sync_) {
    if (faultinject::should_fire(faultinject::FaultSite::kFsyncFail)) {
      fail(Error::io("fault injection: fsync failed for " + tmp_));
    } else if (::fsync(fd_) != 0) {
      fail(write_errno_error("fsync failed for " + tmp_, errno));
    }
  }
  if (!error_.ok()) return error_;
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return write_errno_error("close failed for " + tmp_, errno);
  }
  // The injected failure of the publish step strikes before the rotation,
  // so the head and .prev stay as they were.
  if (faultinject::should_fire(faultinject::FaultSite::kRenameFail)) {
    return Error::io("fault injection: rename " + tmp_ + " -> " + path_);
  }
  if (rotate) {
    // Demote the current head to .prev before landing the new one. A
    // failure here (cross-device weirdness, permissions) costs the
    // fallback, not the checkpoint — proceed and land the head anyway.
    // ENOENT (first write) is the normal case, not a failure.
    const std::string prev = path_ + ".prev";
    (void)std::rename(path_.c_str(), prev.c_str());
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return write_errno_error("rename " + tmp_ + " -> " + path_, errno);
  }
  return Error::success();
}

Error write_file_atomic(const std::string& path, std::string_view body,
                        bool sync) {
  AtomicFile f(path, sync);
  f.append(body);
  return f.publish();
}

Error write_file_rotating(const std::string& path, std::string_view body,
                          bool sync) {
  AtomicFile f(path, sync);
  f.append(body);
  return f.publish_rotating();
}

Result<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Error::io("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Error e = Error::io("fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return e;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // An empty file has nothing to map (mmap rejects a zero length).
  void* data = size == 0 ? nullptr
                         : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds the file
  if (data == MAP_FAILED) {
    return Error::io("mmap " + path + ": " + std::strerror(errno));
  }
  return MappedFile(static_cast<const char*>(data), size);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

Result<std::uint64_t> free_bytes(const std::string& path) {
  if (faultinject::should_fire(faultinject::FaultSite::kLowDisk)) {
    return std::uint64_t{0};
  }
  struct statvfs sv;
  if (::statvfs(path.c_str(), &sv) != 0) {
    return Error::io("statvfs " + path + ": " + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(sv.f_bavail) *
         static_cast<std::uint64_t>(sv.f_frsize);
}

Result<std::uint64_t> truncate_torn_tail(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return std::uint64_t{0};
    return Error::io("cannot open " + path + ": " + std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    const Error e = Error::io("lseek " + path + ": " + std::strerror(errno));
    ::close(fd);
    return e;
  }
  // Walk backwards in chunks looking for the last '\n'.
  char buf[4096];
  off_t keep = 0;  // bytes up to and including the last newline
  bool found = false;
  for (off_t end = size; end > 0 && !found;) {
    const off_t chunk =
        end >= static_cast<off_t>(sizeof buf) ? sizeof buf : end;
    const off_t at = end - chunk;
    if (::pread(fd, buf, static_cast<std::size_t>(chunk), at) != chunk) {
      const Error e = Error::io("pread " + path + ": " + std::strerror(errno));
      ::close(fd);
      return e;
    }
    for (off_t i = chunk; i-- > 0;) {
      if (buf[i] == '\n') {
        keep = at + i + 1;
        found = true;
        break;
      }
    }
    end = at;
  }
  const std::uint64_t dropped = static_cast<std::uint64_t>(size - keep);
  if (dropped > 0 && ::ftruncate(fd, keep) != 0) {
    const Error e =
        Error::io("ftruncate " + path + ": " + std::strerror(errno));
    ::close(fd);
    return e;
  }
  ::close(fd);
  return dropped;
}

}  // namespace ccfuzz
