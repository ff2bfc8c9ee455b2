package tcp

import "github.com/liteflow-sim/liteflow/internal/netsim"

// FixedRate is a test controller pinned at a constant rate and window.
type FixedRate struct {
	Bps int64
	Wnd int
}

// NewFixedRate returns a controller pacing at bps with an effectively
// unlimited window.
func NewFixedRate(bps int64) *FixedRate { return &FixedRate{Bps: bps, Wnd: 1 << 30} }

func (f *FixedRate) Start(netsim.Time) {}
func (f *FixedRate) OnAck(AckInfo)     {}
func (f *FixedRate) OnLoss(LossInfo)   {}
func (f *FixedRate) PacingRate() int64 { return f.Bps }
func (f *FixedRate) CwndBytes() int    { return f.Wnd }
