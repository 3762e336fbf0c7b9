// Package cmdutil holds the process-level pieces the binaries share:
// signal-driven graceful shutdown (SignalContext), the shared flag surface
// (SearchFlags, LogFlags — which route through internal/api so CLI flags
// and server request fields are one schema), and build identity (Version).
// They live here rather than in the engine packages because signals and
// flag grammars are concerns that internal/rewrite and internal/rosa
// deliberately know nothing about.
package cmdutil

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext derives a context cancelled by SIGINT or SIGTERM, the
// graceful-shutdown trigger every binary shares: on the first signal the
// context cancels, in-flight searches wind down promptly (returning their
// partial results and stats), and the command flushes its reports before
// exiting. After the first signal the default handler is restored, so a
// second signal kills the process immediately — an operator is never trapped
// behind a slow flush. The returned stop function releases the signal
// registration; defer it.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
