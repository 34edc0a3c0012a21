package main

// referenceDigests holds, per workload, each op's digest of simulated
// statistics in the first round for the shipped seed. corun and dse
// ignore the seed, so theirs hold for every seed. Regenerate them only
// when a change is meant to alter simulated behaviour, and say so.
var referenceDigests = map[string][]string{
	"kernels": {"058a0a603fc59dcd", "7737e927c6a8d758", "7eaa715ea862cfb2", "1ba288d6170a6469"},
	"cmp":     {"153f2620d6b99e14", "8993bc4977dad007", "1c3b9f1e885cfd1f", "0d750345e85b789f", "6273ee1ac4114ade"},
	"corun":   {"ce7a943b22e153cf"},
	"dse":     {"0136e34eba830104"},
}
