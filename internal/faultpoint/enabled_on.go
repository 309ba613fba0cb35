//go:build faultinject

package faultpoint

const enabled = true
