package span

import "context"

type ctxKey struct{}

// NewContext returns ctx carrying s and its sink, so per-attempt
// scopes flow through fixed callback signatures (search.AttemptFunc)
// without widening them. Only call on armed scopes — the disarmed path
// must not allocate a context.
func NewContext(ctx context.Context, s Scope) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the scope carried by ctx, or a disarmed Scope.
func FromContext(ctx context.Context) Scope {
	s, _ := ctx.Value(ctxKey{}).(Scope)
	return s
}
