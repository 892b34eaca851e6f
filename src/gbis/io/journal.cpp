#include "gbis/io/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace gbis {

std::string publish_file(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return "cannot open " + tmp;
  write(out);
  out.close();  // flushes; a failed flush or close sets failbit
  if (out && std::rename(tmp.c_str(), path.c_str()) == 0) return "";
  const std::string error =
      out ? "cannot rename " + tmp + " -> " + path + ": " + std::strerror(errno)
          : "write failed: " + tmp;
  std::remove(tmp.c_str());
  return error;
}

bool append_line(std::ostream& out, std::string_view line) {
  out << line << '\n';
  out.flush();
  return static_cast<bool>(out);
}

bool read_lines(const std::string& path,
                const std::function<void(const std::string&)>& visit,
                bool& torn) {
  torn = false;
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    // getline reaches end of file without failing only when the last
    // line has no '\n': an append that never finished.
    torn = in.eof();
    if (!torn) visit(line);
  }
  return true;
}

}  // namespace gbis
