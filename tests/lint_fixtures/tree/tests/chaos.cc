// Fixture chaos test.  The spec string below injects
// controller.fixture_injected.  log.fixture_untested is named only
// in this comment, so it must still draw a heartbeat-coverage
// finding.

namespace fixture
{

const char *const chaosSpec = "controller.fixture_injected=5ms";

} // namespace fixture
