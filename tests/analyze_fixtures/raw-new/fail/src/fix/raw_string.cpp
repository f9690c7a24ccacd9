// Fixture: a raw string holding a '"' must not hide the code after it.
const char* greeting() { return R"(say "hi)"; }
int* leak_after_raw_string() { return new int(3); }
