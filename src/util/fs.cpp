#include "util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "faultinject/fault_plan.h"

namespace ccfuzz {
namespace {

/// Maps an errno from a write path onto the repo's typed errors.
Error write_errno_error(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  return err == ENOSPC ? Error::no_space(msg) : Error::io(msg);
}

/// Writes `body` into `tmp` (created/truncated), fsyncs when asked, closes.
/// On failure the tmp file is left behind exactly as a real crash would
/// leave it — callers only ever publish via rename, so a torn tmp is inert.
Error write_tmp_file(const std::string& tmp, const std::string& body,
                     bool sync) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return write_errno_error("cannot open " + tmp, errno);
  }
  if (faultinject::should_fire(faultinject::FaultSite::kNoSpace)) {
    ::close(fd);
    return Error::no_space("fault injection: ENOSPC writing " + tmp);
  }
  if (faultinject::should_fire(faultinject::FaultSite::kShortWrite)) {
    // A short write persists a prefix, then fails — the torn tmp stays on
    // disk like a crash artifact; the target must remain untouched.
    const std::size_t half = body.size() / 2;
    ssize_t ignored = ::write(fd, body.data(), half);
    (void)ignored;
    ::close(fd);
    return Error::io("fault injection: short write on " + tmp);
  }
  const char* p = body.data();
  std::size_t left = body.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Error e = write_errno_error("write failed for " + tmp, errno);
      ::close(fd);
      return e;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (sync) {
    if (faultinject::should_fire(faultinject::FaultSite::kFsyncFail)) {
      ::close(fd);
      return Error::io("fault injection: fsync failed for " + tmp);
    }
    if (::fsync(fd) != 0) {
      const Error e = write_errno_error("fsync failed for " + tmp, errno);
      ::close(fd);
      return e;
    }
  }
  if (::close(fd) != 0) {
    return write_errno_error("close failed for " + tmp, errno);
  }
  return Error::success();
}

/// The publish step: rename tmp into place (fault-injectable).
Error rename_into_place(const std::string& tmp, const std::string& path) {
  if (faultinject::should_fire(faultinject::FaultSite::kRenameFail)) {
    return Error::io("fault injection: rename " + tmp + " -> " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return write_errno_error("rename " + tmp + " -> " + path, errno);
  }
  return Error::success();
}

}  // namespace

Error write_file_atomic(const std::string& path, const std::string& body,
                        bool sync) {
  const std::string tmp = path + ".tmp";
  if (Error e = write_tmp_file(tmp, body, sync)) return e;
  return rename_into_place(tmp, path);
}

Error write_file_rotating(const std::string& path, const std::string& body,
                          bool sync) {
  const std::string tmp = path + ".tmp";
  if (Error e = write_tmp_file(tmp, body, sync)) return e;
  // Demote the current head to .prev before landing the new one. A failure
  // here (cross-device weirdness, permissions) costs the fallback, not the
  // checkpoint — proceed and land the head anyway. ENOENT (first write) is
  // the normal case, not a failure.
  const std::string prev = path + ".prev";
  if (std::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
    // Deliberately not fault-injected: the injectable publish step below is
    // the one whose failure semantics matter (head intact, typed error).
  }
  return rename_into_place(tmp, path);
}

Result<std::string> read_file(const std::string& path) {
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
  std::string body(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < body.size()) {
    const ssize_t n = ::read(fd, body.data() + got, body.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Error e = Error::io("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return e;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  body.resize(got);
  return body;
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
