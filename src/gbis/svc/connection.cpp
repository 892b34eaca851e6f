#include "gbis/svc/connection.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace gbis {

namespace {

/// Read chunk size. Lines are usually short; inline-graph payloads can
/// be large, so keep the chunk big enough to drain them quickly.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Connection::Connection(int fd, std::uint64_t id) : fd_(fd), id_(id) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::read_events(std::vector<ConnEvent>& events,
                             std::size_t max_line_bytes) {
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      const char* begin = chunk;
      const char* const end = chunk + n;
      while (const void* found = std::memchr(begin, '\n', end - begin)) {
        const char* const newline = static_cast<const char*>(found);
        if (discarding_) {
          // Tail of an overlong line: drop it and resync.
          discarding_ = false;
        } else {
          read_buffer_.append(begin, newline - begin);
          if (read_buffer_.size() > max_line_bytes) {
            // A line can overrun within one chunk, not just across
            // reads — the bound applies either way.
            events.push_back(ConnEvent{ConnEvent::Kind::kOverlong, {}});
            read_buffer_.clear();
          } else {
            if (!read_buffer_.empty() && read_buffer_.back() == '\r') {
              read_buffer_.pop_back();  // tolerate CRLF framing
            }
            ConnEvent event;
            event.kind = ConnEvent::Kind::kLine;
            event.line = std::move(read_buffer_);
            events.push_back(std::move(event));
            read_buffer_.clear();
          }
        }
        begin = newline + 1;
      }
      if (!discarding_) {
        read_buffer_.append(begin, end - begin);
        if (read_buffer_.size() > max_line_bytes) {
          events.push_back(ConnEvent{ConnEvent::Kind::kOverlong, {}});
          read_buffer_.clear();
          discarding_ = true;
        }
      }
      continue;  // drain until EAGAIN or EOF
    }
    if (n == 0) {
      // EOF: a trailing unterminated line still counts, matching the
      // stdio replay path's final getline.
      if (!discarding_ && !read_buffer_.empty()) {
        ConnEvent event;
        event.kind = ConnEvent::Kind::kLine;
        event.line = std::move(read_buffer_);
        events.push_back(std::move(event));
        read_buffer_.clear();
      }
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // fatal read error (ECONNRESET and friends)
  }
}

void Connection::queue_line(const std::string& line) {
  // Compact the consumed prefix before growing — keeps the buffer
  // bounded by the actual backlog, not the lifetime byte count.
  if (write_pos_ > 0 && write_pos_ == write_buffer_.size()) {
    write_buffer_.clear();
    write_pos_ = 0;
  } else if (write_pos_ > 64 * 1024) {
    write_buffer_.erase(0, write_pos_);
    write_pos_ = 0;
  }
  write_buffer_ += line;
  write_buffer_ += '\n';
}

bool Connection::flush_writes(double now_seconds) {
  if (!wants_write()) {
    last_progress_seconds_ = now_seconds;
    return true;
  }
  while (write_pos_ < write_buffer_.size()) {
    const ssize_t n =
        ::send(fd_, write_buffer_.data() + write_pos_,
               write_buffer_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      write_pos_ += static_cast<std::size_t>(n);
      last_progress_seconds_ = now_seconds;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET: peer is gone
  }
  last_progress_seconds_ = now_seconds;
  return true;
}

}  // namespace gbis
