#include "util/cli_options.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <utility>

namespace hyperdrive::cli {

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void Options::section(std::string title) { current_section_ = std::move(title); }

void Options::add(std::string name, std::string value_name, std::string help,
                  ValueHandler handler) {
  Entry entry;
  entry.name = std::move(name);
  entry.value_name = std::move(value_name);
  entry.help = std::move(help);
  entry.value_handler = std::move(handler);
  entry.section = current_section_;
  entries_.push_back(std::move(entry));
}

void Options::add_flag(std::string name, std::string help, FlagHandler handler) {
  Entry entry;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.flag_handler = std::move(handler);
  entry.section = current_section_;
  entries_.push_back(std::move(entry));
}

void Options::add_flag(std::string name, std::string help, bool& target) {
  add_flag(std::move(name), std::move(help), [&target]() { target = true; });
}

const Options::Entry* Options::find(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool Options::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(stdout);
      std::exit(0);
    }
    const Entry* entry = find(arg);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      return false;
    }
    if (entry->flag_handler) {
      entry->flag_handler();
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (!entry->value_handler(value)) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", arg.c_str(), value.c_str());
        return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), e.what());
      return false;
    }
  }
  return true;
}

void Options::print_help(std::FILE* out) const {
  std::fprintf(out, "%s — %s\n", program_.c_str(), summary_.c_str());

  // One fixed column for "--name VALUE" so the help lines up regardless of
  // which section a flag lives in.
  std::size_t width = 0;
  for (const auto& entry : entries_) {
    std::size_t w = entry.name.size();
    if (!entry.value_name.empty()) w += 1 + entry.value_name.size();
    if (w > width) width = w;
  }

  std::string section;
  bool first_section = true;
  for (const auto& entry : entries_) {
    if (first_section || entry.section != section) {
      section = entry.section;
      first_section = false;
      std::fprintf(out, "\n%s:\n", section.empty() ? "options" : section.c_str());
    }
    std::string left = entry.name;
    if (!entry.value_name.empty()) left += ' ' + entry.value_name;
    left.resize(width, ' ');
    // Continuation lines of a multi-line help string align under the first.
    std::size_t start = 0;
    bool first_line = true;
    while (start <= entry.help.size()) {
      const std::size_t end = entry.help.find('\n', start);
      const std::string line =
          entry.help.substr(start, end == std::string::npos ? std::string::npos
                                                            : end - start);
      if (first_line) {
        std::fprintf(out, "  %s  %s\n", left.c_str(), line.c_str());
        first_line = false;
      } else {
        std::fprintf(out, "  %*s  %s\n", static_cast<int>(width), "", line.c_str());
      }
      if (end == std::string::npos) break;
      start = end + 1;
    }
  }
}

bool Options::parse_uint(const std::string& text, std::uint64_t& out) {
  // from_chars takes no sign or leading space for an unsigned target and
  // reports out_of_range past 2^64 - 1.
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

bool Options::parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  out = parsed;
  return true;
}

}  // namespace hyperdrive::cli
