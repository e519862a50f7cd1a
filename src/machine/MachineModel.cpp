//===- machine/MachineModel.cpp --------------------------------------------===//

#include "machine/MachineModel.h"

using namespace balign;

bool balign::parseBranchEncoding(const std::string &Name,
                                 BranchEncoding &Out) {
  if (Name == "fixed") {
    Out = BranchEncoding::Fixed;
    return true;
  }
  if (Name == "short-long") {
    Out = BranchEncoding::ShortLong;
    return true;
  }
  return false;
}

MachineModel MachineModel::alpha21164() {
  MachineModel Model;
  Model.Name = "alpha21164";
  Model.CondFallThrough = 0;
  Model.CondTakenCorrect = 1;
  Model.CondMispredict = 5;
  Model.UncondBranch = 2;
  Model.MultiwayPredicted = 1;
  Model.MultiwayMispredict = 3;
  return Model;
}

MachineModel MachineModel::deepPipeline() {
  MachineModel Model;
  Model.Name = "deep-pipeline";
  Model.CondFallThrough = 0;
  Model.CondTakenCorrect = 3;
  Model.CondMispredict = 20;
  Model.UncondBranch = 4;
  Model.MultiwayPredicted = 3;
  Model.MultiwayMispredict = 12;
  return Model;
}

MachineModel MachineModel::cheapBranch() {
  MachineModel Model;
  Model.Name = "cheap-branch";
  Model.CondFallThrough = 0;
  Model.CondTakenCorrect = 0;
  Model.CondMispredict = 2;
  Model.UncondBranch = 0;
  Model.MultiwayPredicted = 0;
  Model.MultiwayMispredict = 2;
  return Model;
}
