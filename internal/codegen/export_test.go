package codegen

// FrameParses is the model-unit fast path, for the fuzz test that seeds it
// with the model zoo from packages this one may not import.
var FrameParses = frameParses
