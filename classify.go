package patchdb

import (
	"patchdb/internal/ml"
	"patchdb/internal/ml/bayes"
	"patchdb/internal/ml/linear"
	"patchdb/internal/ml/neural"
	"patchdb/internal/ml/tree"
)

// Label values for the security patch identification task.
const (
	// NonSecurity is the negative class label.
	NonSecurity = ml.NonSecurity
	// Security is the positive class label.
	Security = ml.Security
)

// ErrLengthMismatch is wrapped by the error RNN.FitTokensWeighted returns
// when the labels or sample weights do not have one entry per sequence.
var ErrLengthMismatch = ml.ErrLengthMismatch

// Classifier is a binary classifier over feature vectors.
type Classifier = ml.Classifier

// Metrics summarizes binary classification quality (precision, recall, F1,
// accuracy, confusion counts).
type Metrics = ml.Metrics

// Evaluate scores predictions against ground truth.
func Evaluate(pred, truth []int) Metrics { return ml.Evaluate(pred, truth) }

// ConfidenceInterval95 returns the half-width of the 95% confidence
// interval for a proportion p over n samples (the ±x% of Table III).
func ConfidenceInterval95(p float64, n int) float64 {
	return ml.ConfidenceInterval95(p, n)
}

// NewRandomForest returns the random forest used throughout the paper's
// evaluation (bagged CART trees with sqrt-feature subsampling).
func NewRandomForest(trees int, seed int64) Classifier {
	return &tree.Forest{Trees: trees, Seed: seed}
}

// NewDecisionTree returns a single CART decision tree (the J48 stand-in).
func NewDecisionTree(maxDepth int) Classifier {
	return &tree.Tree{MaxDepth: maxDepth, MinLeaf: 2}
}

// NewREPTree returns a reduced-error-pruning tree.
func NewREPTree(seed int64) Classifier { return &tree.REPTree{Seed: seed} }

// NewLogistic returns an L2-regularized logistic regression.
func NewLogistic() Classifier { return &linear.Logistic{} }

// NewSGD returns a stochastic-gradient-descent logistic classifier.
func NewSGD(seed int64) Classifier { return &linear.SGD{Seed: seed} }

// NewSVM returns a linear SVM trained with Pegasos.
func NewSVM(seed int64) Classifier { return &linear.SVM{Seed: seed} }

// NewSMO returns a dual-form linear SVM trained with sequential minimal
// optimization.
func NewSMO(seed int64) Classifier { return &linear.SMO{Seed: seed} }

// NewVotedPerceptron returns a voted perceptron.
func NewVotedPerceptron(seed int64) Classifier { return &linear.VotedPerceptron{Seed: seed} }

// NewNaiveBayes returns a Gaussian naive Bayes classifier.
func NewNaiveBayes() Classifier { return &bayes.GaussianNB{} }

// NewBayesNet returns a tree-augmented naive Bayes network (Chow-Liu
// structure over binned features).
func NewBayesNet() Classifier { return &bayes.TAN{} }

// RNN is the recurrent token-sequence classifier of the paper's evaluation.
type RNN = neural.RNN

// NewRNN returns an Elman RNN sequence classifier. Train it with FitTokens
// on TokenSequence outputs.
func NewRNN(epochs int, seed int64) *RNN {
	return &neural.RNN{Epochs: epochs, Seed: seed}
}
