package scenario

// Incubate exposes incubate to the external test.
var Incubate = incubate
