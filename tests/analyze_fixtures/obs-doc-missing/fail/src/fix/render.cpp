// Fixture: a count the /metrics renderer names through serving_count is a
// registered name like a macro's, so it needs a table row too.
#include <string>
#include <string_view>

std::string render(unsigned long completed) {
  std::string out;
  const auto serving_count = [&out](std::string_view name,
                                    unsigned long value) {
    out.append(name).append(std::to_string(value));
  };
  serving_count("fix/rendered_total", completed);
  return out;
}
