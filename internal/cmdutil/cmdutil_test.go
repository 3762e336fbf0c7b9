package cmdutil

import (
	"context"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestSignalContext(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if ctx.Err() != nil {
		t.Fatal("context cancelled before any signal")
	}
	// NotifyContext has the registration installed before it returns, so the
	// self-signal is caught, cancels the context, and never kills the test.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
}

func TestSignalContextParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := SignalContext(parent)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation did not propagate")
	}
}
