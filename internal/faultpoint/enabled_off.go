//go:build !faultinject

package faultpoint

const enabled = false
