package core_test

import (
	"testing"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return core.New() })
}

func TestConformanceNoFilter(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return core.New(core.WithFilterSize(0)) })
}

func TestConformancePassiveCM(t *testing.T) {
	enginetest.Run(t, func() engine.Engine {
		return core.New(core.WithContentionManager(core.Passive{}))
	})
}

func TestConformancePatientCM(t *testing.T) {
	enginetest.Run(t, func() engine.Engine {
		return core.New(core.WithContentionManager(core.Patient{}))
	})
}

func TestConformanceChecked(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return core.New(core.WithChecked(true)) })
}

func TestConformanceCompaction(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return core.New(core.WithCompaction(8)) })
}
