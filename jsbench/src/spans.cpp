#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace jsbench {

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanLog::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order: " +
                           spans_[static_cast<std::size_t>(id)].name);
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.seconds());
  return out;
}

std::vector<double> SpanLog::self_times(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(s.seconds() - child[static_cast<std::size_t>(s.id)]);
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                 "\"start\": %.9f, \"end\": %.9f}%s\n",
                 s.name.c_str(), s.id, s.parent, s.start, s.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace jsbench
