package main

// golden holds the SHA-256 digest of each workload's rows at
// defaultSeed: the JSON Results (lowload, saturation), the JSON Outcome
// (parsec), and the JSON array of served rows (serve). A change that
// alters any simulated statistic changes these; record the new digests
// from a failing run's message only when that change is intended. The
// digests were recorded on amd64; a platform that fuses multiply-adds
// may compute different floating-point rows.
var golden = map[string]string{
	"lowload":    "62feee9187d92f0952dda5924f5297ddf02d3037354d090e52a4b0304ecbcfcc",
	"saturation": "06a481b192df30ec5faefc380dd841ef7f3c7497ddc983f803bf57ef3debee28",
	"parsec":     "0a3b980c47b0fc6a1b0defaed86f7f32f2e3f5742679e6364d6b687af57e4e62",
	"serve":      "9a37ad87d8e0a13b25defd001634aeecc6c3a4aed0d63f5bf146dda0d2f614ad",
}
