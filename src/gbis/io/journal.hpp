// How a gbis file survives a crash. A whole file is published (tmp file
// + rename), so a reader sees the old file or the new one. A journal
// grows by flushed lines and is read back one '\n'-terminated line at a
// time, so a crash tears at most the last line and no reader sees the
// torn part. What a complete line means stays with each journal.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace gbis {

/// Writes `<path>.tmp` through `write` and renames it over `path`.
/// Returns "" on success, else a message naming the file that failed;
/// `path` is then untouched and no `<path>.tmp` is left behind.
std::string publish_file(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

/// Writes `line` and its '\n', then flushes. False on a write error.
bool append_line(std::ostream& out, std::string_view line);

/// Visits each '\n'-terminated line of `path` in order, without its
/// '\n'. A non-empty unterminated tail is a torn append: it is never
/// visited, and `torn` reports it. False when `path` cannot be opened.
bool read_lines(const std::string& path,
                const std::function<void(const std::string&)>& visit,
                bool& torn);

}  // namespace gbis
