// Fixture: a documented count rendered only through serving_count is
// still registered, so its row is not stale.
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
