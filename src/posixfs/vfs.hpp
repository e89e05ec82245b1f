// User-space VFS interface mirroring the POSIX calls FanStore intercepts
// (paper Listing 1): open/close/read/write/lseek/stat and the directory
// trio. Errors are reported POSIX-style as negative errno values, never as
// exceptions, because the real system sits behind unsuspecting glibc
// callers.
//
// Substitution note (DESIGN.md §1): the paper injects these functions into
// glibc via LD_PRELOAD + trampolines; here the same call table is a virtual
// interface that the Interceptor dispatches on. All semantics — fd tables,
// the multi-read/single-write model, write-once close — live behind this
// interface exactly as they do behind the intercepted glibc symbols.
#pragma once

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "format/file_stat.hpp"
#include "util/bytes.hpp"

namespace fanstore::posixfs {

enum class OpenMode {
  kRead,   // O_RDONLY
  kWrite,  // O_WRONLY | O_CREAT | O_TRUNC — FanStore's single-write model
};

enum class Whence { kSet, kCur, kEnd };

struct Dirent {
  std::string name;  // entry name (not full path)
  format::FileType type = format::FileType::kRegular;
};

/// Abstract filesystem with POSIX-flavoured error handling. Implementations
/// must be thread-safe: DL frameworks issue these calls from many I/O
/// threads concurrently (§II-B).
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Returns a file descriptor (>= 0) or -errno.
  virtual int open(std::string_view path, OpenMode mode) = 0;

  /// Returns 0 or -errno.
  virtual int close(int fd) = 0;

  /// Reads up to buf.size() bytes at the fd's offset; returns bytes read
  /// (0 at EOF) or -errno. Advances the offset.
  virtual std::int64_t read(int fd, MutByteView buf) = 0;

  /// Positional read: up to buf.size() bytes at `offset`, without moving
  /// the fd's cursor; returns bytes read (0 past EOF) or -errno. The
  /// default emulates via lseek+read+lseek and is not atomic against
  /// concurrent cursor users of the same fd; FanStoreFs overrides it with
  /// a cursor-free read that decodes only the touched chunks of a
  /// chunk-compressed file.
  virtual std::int64_t pread(int fd, MutByteView buf, std::uint64_t offset);

  /// Appends/overwrites at the fd's offset; returns bytes written or -errno.
  virtual std::int64_t write(int fd, ByteView buf) = 0;

  /// Repositions the fd; returns the new offset or -errno.
  virtual std::int64_t lseek(int fd, std::int64_t offset, Whence whence) = 0;

  /// Fills `out`; returns 0 or -errno.
  virtual int stat(std::string_view path, format::FileStat* out) = 0;

  /// Returns a directory handle (>= 0) or -errno.
  virtual int opendir(std::string_view path) = 0;

  /// Next entry, or nullopt at end-of-directory. Invalid handles yield
  /// nullopt as glibc's readdir returns NULL for both cases.
  virtual std::optional<Dirent> readdir(int dir_handle) = 0;

  /// Returns 0 or -errno.
  virtual int closedir(int dir_handle) = 0;
};

/// lseek() for a Vfs that keeps the cursor itself: moves `*cursor` to
/// `offset` past the start (kSet), `*cursor` (kCur) or `size` (kEnd) and
/// returns the new position. A target that is negative or does not fit in
/// int64 returns -EINVAL and leaves `*cursor` unchanged.
std::int64_t seek_cursor(std::int64_t* cursor, std::int64_t offset,
                         Whence whence, std::size_t size);

/// Normalizes "a//b/./c" to "a/b/c"; strips leading and trailing slashes.
/// Rejects ".." (returns empty string) — FanStore paths are dataset-rooted.
std::string normalize_path(std::string_view path);

/// Reads an entire file through any Vfs; returns nullopt on error.
std::optional<Bytes> read_file(Vfs& fs, std::string_view path);

/// Writes an entire file through any Vfs; returns 0 or -errno.
int write_file(Vfs& fs, std::string_view path, ByteView data);

}  // namespace fanstore::posixfs
