// Package ctxflow is the seeded fixture for the ctxflow analyzer's
// context rules: minted contexts and dropped ctx parameters carry want
// expectations; threaded and explicitly-discarded contexts must stay
// quiet.
//
//lint:ctxflow
package ctxflow

import "context"

func fetch(ctx context.Context, url string) error {
	_ = ctx
	_ = url
	return nil
}

// Detached mints a root context in serving code: flagged.
func Detached(url string) error {
	return fetch(context.Background(), url) // want `context\.Background in ctxflow`
}

// Dropped receives ctx, never uses it, and calls a context-accepting
// function anyway: both the mint and the drop are flagged.
func Dropped(ctx context.Context, url string) error { // want `Dropped receives ctx but never propagates it`
	return fetch(context.TODO(), url) // want `context\.TODO in ctxflow`
}

// Threaded passes its ctx downstream: quiet.
func Threaded(ctx context.Context, url string) error {
	return fetch(ctx, url)
}

// DiscardedByName opts out with the blank identifier: quiet.
func DiscardedByName(_ context.Context, a, b int) int {
	return a + b
}

// ShutdownPush shows the escape hatch: detached by design, suppressed
// by the allow directive.
func ShutdownPush(url string) error {
	return fetch(context.Background(), url) //lint:allow ctxflow deliberately detached shutdown push
}

func misplaced() {
	//lint:ctxflow // want `lint:ctxflow outside a package doc comment`
}
