//go:build race

package codegen

const raceEnabled = true
