#include "posixfs/vfs.hpp"

#include <algorithm>
#include <new>
#include <vector>

namespace fanstore::posixfs {

std::string normalize_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    const auto part = path.substr(i, j - i);
    if (!part.empty() && part != ".") {
      if (part == "..") return {};
      parts.push_back(part);
    }
    i = j;
  }
  std::string out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    if (k > 0) out += '/';
    out += parts[k];
  }
  return out;
}

std::int64_t seek_cursor(std::int64_t* cursor, std::int64_t offset,
                         Whence whence, std::size_t size) {
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet: base = 0; break;
    case Whence::kCur: base = *cursor; break;
    case Whence::kEnd: base = static_cast<std::int64_t>(size); break;
  }
  std::int64_t pos = 0;
  if (__builtin_add_overflow(base, offset, &pos) || pos < 0) return -EINVAL;
  *cursor = pos;
  return pos;
}

std::int64_t Vfs::pread(int fd, MutByteView buf, std::uint64_t offset) {
  const std::int64_t saved = lseek(fd, 0, Whence::kCur);
  if (saved < 0) return saved;
  const std::int64_t pos =
      lseek(fd, static_cast<std::int64_t>(offset), Whence::kSet);
  if (pos < 0) return pos;
  const std::int64_t n = read(fd, buf);
  lseek(fd, saved, Whence::kSet);
  return n;
}

std::int64_t write_at_cursor(Bytes* buffer, std::int64_t* cursor, ByteView buf) {
  // The cursor is >= 0 (seek_cursor keeps it there), so the sum is exact.
  const std::uint64_t end = static_cast<std::uint64_t>(*cursor) + buf.size();
  if (end > kMaxFileBytes) return -EFBIG;
  if (end > buffer->size()) {
    try {
      buffer->resize(static_cast<std::size_t>(end));
    } catch (const std::bad_alloc&) {
      return -ENOMEM;
    }
  }
  std::copy(buf.begin(), buf.end(),
            buffer->begin() + static_cast<std::ptrdiff_t>(*cursor));
  *cursor = static_cast<std::int64_t>(end);
  return static_cast<std::int64_t>(buf.size());
}

bool Vfs::try_serve(ServeOp, std::string_view, ServeAnswer*) { return false; }

ServeAnswer serve(Vfs& fs, ServeOp op, std::string_view path) {
  ServeAnswer a;
  switch (op) {
    case ServeOp::kStat:
      a.rc = fs.stat(path, &a.stat);
      break;
    case ServeOp::kList: {
      const int h = fs.opendir(path);
      if (h < 0) {
        a.rc = h;
        break;
      }
      while (auto e = fs.readdir(h)) a.entries.push_back(std::move(*e));
      fs.closedir(h);
      break;
    }
    case ServeOp::kReadAll: {
      auto data = read_file(fs, path);
      if (!data) {
        a.rc = -ENOENT;
        break;
      }
      auto owned = std::make_shared<const Bytes>(std::move(*data));
      a.data = as_view(*owned);
      a.pin = std::move(owned);
      break;
    }
  }
  return a;
}

std::optional<Bytes> read_file(Vfs& fs, std::string_view path) {
  const int fd = fs.open(path, OpenMode::kRead);
  if (fd < 0) return std::nullopt;
  Bytes out;
  std::uint8_t chunk[kReadFileChunk];
  for (;;) {
    const std::int64_t n = fs.read(fd, MutByteView{chunk, sizeof(chunk)});
    if (n < 0) {
      fs.close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.insert(out.end(), chunk, chunk + n);
  }
  fs.close(fd);
  return out;
}

int write_file(Vfs& fs, std::string_view path, ByteView data) {
  const int fd = fs.open(path, OpenMode::kWrite);
  if (fd < 0) return fd;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::int64_t n = fs.write(fd, data.subspan(off));
    if (n < 0) {
      fs.close(fd);
      return static_cast<int>(n);
    }
    off += static_cast<std::size_t>(n);
  }
  return fs.close(fd);
}

}  // namespace fanstore::posixfs
