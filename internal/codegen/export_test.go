package codegen

// FrameParses is the model-unit fast path, for the fuzz test that seeds it
// with the model zoo from packages this one may not import; AppendFrame is
// its frame scan, which the same file checks against a reference.
var (
	FrameParses = frameParses
	AppendFrame = appendFrame
)
