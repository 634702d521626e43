package chaos

// MiniWorld exposes the checker tests' 3-switch group to the external
// reference test.
var MiniWorld = miniWorld
