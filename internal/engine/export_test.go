package engine

// EstimateMaterialized exposes the materialized oracle to the external
// differential test, which needs the core search space.
var EstimateMaterialized = estimateMaterialized
