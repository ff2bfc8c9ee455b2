package opt_test

// Tests for the options package: resolution order and nil-safety.

import (
	"reflect"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

func TestResolveEmpty(t *testing.T) {
	o := opt.Resolve(nil)
	if !reflect.DeepEqual(o.Scope, obs.Scope{}) {
		t.Errorf("default scope must be the zero (no-op) scope, got %+v", o.Scope)
	}
}

func TestResolveSkipsNilOptions(t *testing.T) {
	reg := obs.NewRegistry()
	o := opt.Resolve([]opt.Option{nil, opt.WithScope(obs.New(reg, nil)), nil})
	if o.Scope.Registry() != reg {
		t.Errorf("nil options must be skipped around a WithScope, got %+v", o.Scope)
	}
}

func TestWithScopeLastWins(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	o := opt.Resolve([]opt.Option{
		opt.WithScope(obs.New(regA, nil)),
		opt.WithScope(obs.New(regB, nil)),
	})
	if o.Scope.Registry() != regB {
		t.Error("later WithScope must override earlier one")
	}
}
