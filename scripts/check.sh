#!/bin/sh
# Pre-push checks: vet everything, run the full suite and the separate
# ombench module's tests, then re-run the concurrency-heavy packages under
# the race detector.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test ./... (ombench module)"
(cd ombench && go test ./...)

echo "== go test -race (concurrent packages)"
go test -race ./internal/obsv ./internal/eventbus ./internal/discovery

echo "check: OK"
