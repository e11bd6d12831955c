package kway

// BuildParts exposes buildParts to the external tests, which render an
// Engine.Search result's parts.
var BuildParts = buildParts
